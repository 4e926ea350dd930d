// Cross-module integration scenarios beyond core_test: firmware built by
// the CLI-equivalent path served by a cluster, RDMA image traffic under
// loss, health-checked failover end to end, and tail-latency invariants
// across backends under identical load, and KV calls that stay bounded
// when the fabric loses packets.
#include <gtest/gtest.h>

#include "backends/backend.h"
#include "compiler/pipeline.h"
#include "core/cluster.h"
#include "framework/health.h"
#include "microc/frontend.h"
#include "p4/text.h"
#include "proto/invocation.h"
#include "proto/rpc.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic {
namespace {

TEST(Integration, SourceAuthoredBundleServedByCluster) {
  // The Listing 1-3 path, through the public Cluster API.
  auto program = microc::compile_microc(R"(
    int doubler() {
      resp_word(hdr(key) * 2);
      return 0;
    }
  )");
  ASSERT_TRUE(program.ok());
  auto spec = p4::parse_p4(R"(
    table t { key = { workload_id; } entry (6) -> doubler; }
    control ingress { apply(t); }
  )");
  ASSERT_TRUE(spec.ok());

  workloads::WorkloadBundle bundle;
  bundle.lambdas = std::move(program).value();
  bundle.spec = std::move(spec).value();

  core::ClusterConfig config;
  config.workers = 2;
  config.with_etcd = false;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(std::move(bundle)).ok());
  cluster.wait_until_ready();
  auto r = cluster.invoke_and_wait("doubler",
                                   workloads::encode_kv_request(21));
  ASSERT_TRUE(r.ok()) << r.error().message;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(r.value().payload[i]) << (8 * i);
  }
  EXPECT_EQ(v, 42u);
}

TEST(Integration, HybridClusterServesEveryFunctionUnderNicFirst) {
  // The headline placement scenario: a mixed pool deploys the standard
  // bundle, NIC workers host everything (it fits), and every function
  // answers through the weighted routes.
  core::ClusterConfig config;
  config.worker_kinds = {
      backends::BackendKind::kLambdaNic, backends::BackendKind::kLambdaNic,
      backends::BackendKind::kBareMetal, backends::BackendKind::kContainer};
  core::Cluster cluster(config);
  auto record = cluster.deploy(workloads::make_standard_workloads());
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().placements.size(), 4u);
  cluster.wait_until_ready();

  auto web = cluster.invoke_and_wait("web_server",
                                     workloads::encode_web_request(1));
  ASSERT_TRUE(web.ok()) << web.error().message;
  ASSERT_TRUE(cluster.invoke_and_wait("kv_client_get",
                                      workloads::encode_kv_request(5))
                  .ok());
  ASSERT_TRUE(cluster.invoke_and_wait("kv_client_set",
                                      workloads::encode_kv_request(5, 9))
                  .ok());
  const auto img = workloads::make_test_image(64, 64, 3);
  ASSERT_TRUE(cluster
                  .invoke_and_wait("image_transformer",
                                   workloads::encode_image_request(
                                       img.width, img.height, img.rgba))
                  .ok());
}

TEST(Integration, OversizeLambdaSpillsToHostRestStayOnNic) {
  // Blow the web server past the 16 K instruction store: NicFirst must
  // place it on the host workers while the other three lambdas stay
  // NIC-resident — and both halves keep serving.
  workloads::Scale scale;
  scale.web_mix_rounds = 6000;
  core::ClusterConfig config;
  config.worker_kinds = {
      backends::BackendKind::kLambdaNic, backends::BackendKind::kLambdaNic,
      backends::BackendKind::kBareMetal, backends::BackendKind::kContainer};
  core::Cluster cluster(config);
  auto record = cluster.deploy(workloads::make_standard_workloads(scale));
  ASSERT_TRUE(record.ok()) << record.error().message;

  for (const auto& placement : record.value().placements) {
    ASSERT_FALSE(placement.replicas.empty()) << placement.function;
    for (const auto& replica : placement.replicas) {
      if (placement.function == "web_server") {
        EXPECT_NE(replica.kind, backends::BackendKind::kLambdaNic);
      } else {
        EXPECT_EQ(replica.kind, backends::BackendKind::kLambdaNic)
            << placement.function;
      }
    }
  }

  cluster.wait_until_ready();
  auto web = cluster.invoke_and_wait("web_server",
                                     workloads::encode_web_request(2));
  ASSERT_TRUE(web.ok()) << web.error().message;
  ASSERT_TRUE(cluster.invoke_and_wait("kv_client_get",
                                      workloads::encode_kv_request(7))
                  .ok());
}

TEST(Integration, HomogeneousPlacementMatchesLegacyRoutes) {
  // A homogeneous cluster routed through the placement layer must look
  // exactly like the pre-placement cluster: every function on every
  // worker, in worker order.
  core::ClusterConfig config;
  config.workers = 3;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  const auto* route = cluster.gateway().route("web_server");
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->replicas.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(route->workers[i], cluster.worker(i).node());
    EXPECT_EQ(route->replicas[i].node, cluster.worker(i).node());
  }
}

TEST(Integration, ImageOverLossyFabricStillExact) {
  // 5% loss on a 100+-fragment RDMA transfer: retransmission +
  // reassembly must still deliver a byte-exact grayscale result.
  core::ClusterConfig config;
  config.workers = 1;
  config.with_etcd = false;
  config.faults.drop_probability = 0.05;
  config.gateway.rpc.retransmit_timeout = milliseconds(30);
  config.gateway.rpc.max_retries = 100;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  const auto img = workloads::make_test_image(200, 200, 11);
  auto r = cluster.invoke_and_wait(
      "image_transformer",
      workloads::encode_image_request(img.width, img.height, img.rgba));
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().payload, workloads::to_grayscale(img));
  EXPECT_GT(cluster.gateway().rpc().retransmissions(), 0u);
}

TEST(Integration, HealthCheckerPlusGatewayKeepServingThroughCrash) {
  sim::Simulator sim;
  net::Network network(sim);
  auto alive = backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                                      network);
  auto doomed = backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                                       network);
  kvstore::CacheServer cache(sim, network);
  alive->set_kv_server(cache.node());
  doomed->set_kv_server(cache.node());
  ASSERT_TRUE(alive->deploy(workloads::make_standard_workloads()).ok());
  ASSERT_TRUE(doomed->deploy(workloads::make_standard_workloads()).ok());
  sim.run_until(seconds(20));

  framework::GatewayConfig gw_config;
  gw_config.failover_attempts = 1;
  gw_config.rpc.retransmit_timeout = milliseconds(20);
  gw_config.rpc.max_retries = 2;
  framework::Gateway gateway(sim, network, gw_config);
  gateway.register_function("web_server", workloads::kWebServerId,
                            {alive->node(), doomed->node()});

  framework::HealthConfig hc;
  hc.probe_interval = milliseconds(100);
  hc.probe_timeout = milliseconds(30);
  hc.max_failures = 2;
  framework::HealthChecker checker(sim, network, gateway, hc);
  checker.watch(alive->node(), workloads::encode_web_request(0));
  checker.watch(doomed->node(), workloads::encode_web_request(0));
  checker.start();

  // Crash the doomed worker by detaching its handler.
  sim.schedule(milliseconds(300), [&] {
    network.set_handler(doomed->node(), nullptr);
  });

  // Steady trickle of traffic throughout; everything must complete.
  int ok = 0, failed = 0;
  sim::PeriodicTimer load(sim, milliseconds(20), [&] {
    gateway.invoke("web_server", workloads::encode_web_request(0),
                   [&](Result<proto::RpcResponse> r) {
                     if (r.ok()) {
                       ++ok;
                     } else {
                       ++failed;
                     }
                   });
  });
  load.start();
  sim.run_until(sim.now() + seconds(2));
  load.stop();
  checker.stop();
  sim.run();

  EXPECT_EQ(failed, 0);
  EXPECT_GE(ok, 95);
  EXPECT_FALSE(checker.is_healthy(doomed->node()));
  // The crashed worker stays in the route (quarantined until a probe
  // succeeds) so a later recovery needs no manager intervention.
  EXPECT_EQ(gateway.route("web_server")->workers,
            (std::vector<NodeId>{alive->node(), doomed->node()}));
  EXPECT_EQ(checker.quarantines(), 1u);
}

// Property sweep: for every backend pair under identical load, λ-NIC's
// p99 stays below the host backends' p50 (the paper's headline ordering
// holds even comparing λ-NIC's tail to the hosts' median).
class TailOrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(TailOrderingTest, NicTailBeatsHostMedian) {
  const int concurrency = GetParam();
  Sampler lat[3];
  const backends::BackendKind kinds[] = {backends::BackendKind::kLambdaNic,
                                         backends::BackendKind::kBareMetal,
                                         backends::BackendKind::kContainer};
  for (int k = 0; k < 3; ++k) {
    sim::Simulator sim;
    net::Network network(sim);
    auto backend = backends::make_backend(kinds[k], sim, network);
    kvstore::CacheServer cache(sim, network);
    backend->set_kv_server(cache.node());
    ASSERT_TRUE(backend->deploy(workloads::make_standard_workloads()).ok());
    sim.run_until(seconds(20));
    proto::RpcConfig rpc;
    rpc.retransmit_timeout = seconds(600);
    proto::RpcClient client(sim, network, rpc);
    std::uint64_t left = 300;
    std::function<void()> issue = [&]() {
      if (left == 0) return;
      --left;
      client.call(backend->node(), workloads::kWebServerId,
                  workloads::encode_web_request(left & 3),
                  [&, k](Result<proto::RpcResponse> r) {
                    if (r.ok()) {
                      lat[k].add(static_cast<double>(r.value().latency));
                    }
                    issue();
                  });
    };
    for (int c = 0; c < concurrency; ++c) issue();
    sim.run();
  }
  EXPECT_LT(lat[0].p99(), lat[1].median()) << "vs bare metal";
  EXPECT_LT(lat[0].p99(), lat[2].median()) << "vs container";
  EXPECT_LT(lat[1].median(), lat[2].median());
}

INSTANTIATE_TEST_SUITE_P(Concurrency, TailOrderingTest,
                         ::testing::Values(1, 8, 56));

/// One worker of `kind` on a fabric that drops 5% of packets, serving
/// the standard bundle with 64 keys in the cache.
std::unique_ptr<core::Cluster> lossy_kv_cluster(backends::BackendKind kind) {
  core::ClusterConfig config;
  config.workers = 1;
  config.backend = kind;
  config.faults.drop_probability = 0.05;
  auto cluster = std::make_unique<core::Cluster>(config);
  EXPECT_TRUE(cluster->deploy(workloads::make_standard_workloads()).ok());
  cluster->wait_until_ready();
  for (std::uint64_t key = 0; key < 64; ++key) {
    cluster->cache().put(key, 1000 + key);
  }
  return cluster;
}

struct LossyKvRun {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

/// `requests` kv_client_get calls, one every `gap`, then `drain` of
/// quiet. A KV call that loses its request or reply must be resent or
/// time out, so no NPU thread or host slot stays held.
LossyKvRun run_lossy_kv(core::Cluster& cluster, std::uint64_t requests,
                        SimDuration gap, SimDuration drain) {
  LossyKvRun run;
  const SimTime start = cluster.sim().now();
  for (std::uint64_t i = 0; i < requests; ++i) {
    cluster.sim().schedule_at(
        start + static_cast<SimDuration>(i) * gap, [&run, &cluster, i] {
          const std::uint64_t key = i % 64;
          cluster.invoke("kv_client_get", workloads::encode_kv_request(key),
                         [&run, key](Result<proto::RpcResponse> r) {
                           if (!r.ok()) {
                             ++run.failed;
                           } else if (proto::payload_word(r.value().payload,
                                                          0) != 1000 + key) {
                             ++run.wrong;
                           } else {
                             ++run.ok;
                           }
                         });
        });
  }
  cluster.sim().run_until(start + static_cast<SimDuration>(requests) * gap +
                          drain);
  return run;
}

TEST(KvCallBounds, LambdaNicFreesEveryThreadUnderLoss) {
  auto cluster = lossy_kv_cluster(backends::BackendKind::kLambdaNic);
  const LossyKvRun run =
      run_lossy_kv(*cluster, 10000, microseconds(50), seconds(30));
  auto& nic = dynamic_cast<backends::LambdaNicBackend&>(cluster->worker(0))
                  .nic();
  std::printf("lambda-nic: %llu ok, %llu failed, %llu wrong; %llu KV resends,"
              " %llu KV timeouts\n",
              static_cast<unsigned long long>(run.ok),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.wrong),
              static_cast<unsigned long long>(nic.stats().kv_retransmits),
              static_cast<unsigned long long>(nic.stats().kv_timeouts));
  EXPECT_EQ(run.ok, 10000u);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.wrong, 0u);
  EXPECT_EQ(nic.busy_threads(), 0u);
  EXPECT_GT(nic.stats().kv_retransmits, 0u);
}

TEST(KvCallBounds, BareMetalFreesEverySlotUnderLoss) {
  auto cluster = lossy_kv_cluster(backends::BackendKind::kBareMetal);
  const LossyKvRun run =
      run_lossy_kv(*cluster, 2000, milliseconds(5), seconds(60));
  auto& host =
      dynamic_cast<backends::HostBackend&>(cluster->worker(0)).host();
  std::printf("bare metal: %llu ok, %llu failed, %llu wrong; %llu KV resends,"
              " %llu KV timeouts\n",
              static_cast<unsigned long long>(run.ok),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.wrong),
              static_cast<unsigned long long>(host.stats().kv_retransmits),
              static_cast<unsigned long long>(host.stats().kv_timeouts));
  EXPECT_EQ(run.ok, 2000u);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.wrong, 0u);
  EXPECT_EQ(host.active_jobs(), 0u);
  EXPECT_GT(host.stats().kv_retransmits, 0u);
}

}  // namespace
}  // namespace lnic
