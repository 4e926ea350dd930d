// Tests for the framework layer: gateway routing/metrics, route
// encoding, etcd synchronization, manager deployment records, metrics
// rendering, storage, and the autoscaler control loop.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>

#include "backends/backend.h"
#include "framework/autoscaler.h"
#include "framework/gateway.h"
#include "framework/manager.h"
#include "framework/health.h"
#include "framework/monitor.h"
#include "framework/metrics.h"
#include "framework/storage.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

namespace lnic::framework {
namespace {

TEST(Metrics, CountersGaugesSamplersRender) {
  MetricsRegistry registry;
  registry.counter("requests_total").increment(3);
  registry.gauge("replicas") = 2.0;
  registry.sampler("latency").add(10.0);
  registry.sampler("latency").add(20.0);
  const std::string text = registry.render();
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("replicas 2"), std::string::npos);
  EXPECT_NE(text.find("latency_count 2"), std::string::npos);
  EXPECT_NE(text.find("latency_mean 15"), std::string::npos);
  EXPECT_TRUE(registry.has("requests_total"));
  EXPECT_FALSE(registry.has("nope"));
}

TEST(Metrics, LabelValuesWithSeparatorsKeepTheirOwnSeries) {
  MetricsRegistry registry;
  // Values without `\`, `,` or `=` keep the plain key and its baked form.
  EXPECT_EQ(series_key("x_total", {{"fn", "f"}}), "x_total{fn=f}");
  registry.counter("x_total", {{"fn", "f"}}).increment();
  EXPECT_EQ(registry.counter("x_total{fn=f}").value(), 1u);

  // One label whose value holds `,` and `=` is not two labels.
  registry.gauge("g", {{"a", "x,b=y"}}) = 1.0;
  registry.gauge("g", {{"a", "x"}, {"b", "y"}}) = 2.0;
  // A trailing backslash cannot escape the separator after it.
  registry.gauge("g", {{"a", "x\\"}, {"b", "y"}}) = 3.0;
  registry.gauge("g", {{"a", "x\\,b=y"}}) = 4.0;
  EXPECT_EQ(registry.gauge("g", {{"a", "x,b=y"}}), 1.0);
  EXPECT_EQ(registry.gauge("g", {{"a", "x"}, {"b", "y"}}), 2.0);
  EXPECT_EQ(registry.gauge("g", {{"a", "x\\"}, {"b", "y"}}), 3.0);
  registry.gauge("loadgen_offered_rps", {{"fn", "a,b=c"}}) = 5.0;

  const std::string text = registry.render();
  EXPECT_NE(text.find("g{a=\"x,b=y\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g{a=\"x\",b=\"y\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("g{a=\"x\\\\\",b=\"y\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("g{a=\"x\\\\,b=y\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("loadgen_offered_rps{fn=\"a,b=c\"} 5\n"),
            std::string::npos);
  EXPECT_EQ(text.find("{fn=\"a\",b=\"c\"}"), std::string::npos);
}

TEST(Metrics, CollectHooksRunBeforeEveryRead) {
  MetricsRegistry registry;
  int runs = 0;
  double source = 7.0;
  const int owner = 0;
  registry.add_collector(&owner, [&] {
    ++runs;
    registry.gauge("pulled") = source;  // a hook's own lookup: no re-entry
  });
  EXPECT_TRUE(registry.has("pulled"));
  source = 8.0;
  EXPECT_EQ(registry.gauge("pulled"), 8.0);
  source = 9.0;
  EXPECT_NE(registry.render().find("pulled 9\n"), std::string::npos);
  EXPECT_EQ(runs, 3);
  registry.remove_collector(&owner);
  source = 10.0;
  EXPECT_EQ(registry.gauge("pulled"), 9.0);  // now a plain gauge
  EXPECT_EQ(runs, 3);
}

TEST(Storage, PutGetTransferTime) {
  BlobStorage storage(1e9);
  storage.put("fw", 1_MiB);
  EXPECT_TRUE(storage.contains("fw"));
  EXPECT_FALSE(storage.contains("nope"));
  ASSERT_TRUE(storage.size_of("fw").ok());
  EXPECT_EQ(storage.size_of("fw").value(), 1_MiB);
  EXPECT_FALSE(storage.size_of("nope").ok());
  const auto t = storage.transfer_time("fw");
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(to_sec(t.value()), 8.389e-3, 1e-4);
  EXPECT_EQ(storage.list().size(), 1u);
}

TEST(Gateway, RouteEncodingRoundTrips) {
  const auto encoded =
      Gateway::encode_replicas(7, {Replica{1}, Replica{2}, Replica{3}});
  EXPECT_EQ(encoded, "7|1,2,3");
  const auto decoded = Gateway::decode_route(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().workload, 7u);
  EXPECT_EQ(decoded.value().workers, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_FALSE(Gateway::decode_route("garbage").ok());
  EXPECT_FALSE(Gateway::decode_route("x|1").ok());
}

TEST(Gateway, ReplicaEncodingRoundTrips) {
  const std::vector<Replica> replicas = {
      Replica{1, kUnknownBackendKind},  // plain: encodes as just "1"
      Replica{3, 0},                    // kind-tagged (kLambdaNic)
      Replica{4, 2},                    // kind-tagged (kContainer)
  };
  const auto encoded = Gateway::encode_replicas(7, replicas);
  EXPECT_EQ(encoded, "7|1,3@0,4@2");
  const auto decoded = Gateway::decode_route(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().workload, 7u);
  EXPECT_EQ(decoded.value().replicas, replicas);
  EXPECT_EQ(decoded.value().workers, (std::vector<NodeId>{1, 3, 4}));
}

TEST(Gateway, DecodeRouteRejectsMalformedReplicas) {
  EXPECT_FALSE(Gateway::decode_route("").ok());
  EXPECT_FALSE(Gateway::decode_route("7|").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1,,2").ok());    // empty token
  EXPECT_FALSE(Gateway::decode_route("7|1*").ok());      // '*' is no token
  EXPECT_FALSE(Gateway::decode_route("7|1*0").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1*x").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1*2").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1*2@0").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1@").ok());      // missing kind
  EXPECT_FALSE(Gateway::decode_route("7|1@999").ok());   // kind > 0xFF
  EXPECT_FALSE(Gateway::decode_route("7|1@x*2").ok());   // kind not numeric
}

TEST(Gateway, DecodeRouteRejectsTrailingGarbageAndSigns) {
  // std::stoul used to accept these: "2x" parsed as node 2, "-1" wrapped
  // to a huge unsigned, whitespace was skipped.
  EXPECT_FALSE(Gateway::decode_route("7|2x,3").ok());
  EXPECT_FALSE(Gateway::decode_route("7|-1").ok());
  EXPECT_FALSE(Gateway::decode_route("-7|1").ok());
  EXPECT_FALSE(Gateway::decode_route("7|+1").ok());
  EXPECT_FALSE(Gateway::decode_route("7x|1").ok());
  EXPECT_FALSE(Gateway::decode_route(" 7|1").ok());
  EXPECT_FALSE(Gateway::decode_route("7| 1").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1 ").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1*2y").ok());
  EXPECT_FALSE(Gateway::decode_route("7|1@2z").ok());
  // Out-of-range ids (NodeId/WorkloadId are 32-bit).
  EXPECT_FALSE(Gateway::decode_route("7|99999999999").ok());
  EXPECT_FALSE(Gateway::decode_route("99999999999|1").ok());
  // Sanity: the strict parser still accepts well-formed routes.
  EXPECT_TRUE(Gateway::decode_route("7|2,3").ok());
  EXPECT_TRUE(Gateway::decode_route("7|2@1,3").ok());
}

struct GatewayRig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<backends::Backend> backend;
  std::unique_ptr<kvstore::CacheServer> cache;
  Gateway gateway{sim, network};

  GatewayRig() {
    backend = backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                                     network);
    cache = std::make_unique<kvstore::CacheServer>(sim, network);
    backend->set_kv_server(cache->node());
    EXPECT_TRUE(backend->deploy(workloads::make_standard_workloads()).ok());
    sim.run_until(seconds(20));
  }
};

TEST(Gateway, InvokesByNameAndRecordsMetrics) {
  GatewayRig rig;
  rig.gateway.register_function("web_server", workloads::kWebServerId,
                                {rig.backend->node()});
  std::optional<Result<proto::RpcResponse>> got;
  rig.gateway.invoke("web_server", workloads::encode_web_request(0),
                     [&](Result<proto::RpcResponse> r) { got = std::move(r); });
  rig.sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(rig.gateway.metrics()
                .counter("gateway_requests_total{fn=web_server}")
                .value(),
            1u);
  EXPECT_EQ(rig.gateway.latency("web_server").count(), 1u);
}

TEST(Gateway, UnroutableFunctionFailsFast) {
  GatewayRig rig;
  bool failed = false;
  rig.gateway.invoke("missing", {}, [&](Result<proto::RpcResponse> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  rig.sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(rig.gateway.metrics().counter("gateway_unroutable_total").value(),
            1u);
}

TEST(Gateway, RoundRobinAcrossWorkers) {
  sim::Simulator sim;
  net::Network network(sim);
  // Two raw echo workers record hit counts.
  int hits[2] = {0, 0};
  NodeId w[2];
  for (int i = 0; i < 2; ++i) {
    w[i] = network.attach(nullptr);
  }
  for (int i = 0; i < 2; ++i) {
    network.set_handler(w[i], [&, i](const net::Packet& p) {
      if (p.kind != net::PacketKind::kRequest) return;
      ++hits[i];
      net::Packet reply;
      reply.src = w[i];
      reply.dst = p.src;
      reply.kind = net::PacketKind::kResponse;
      reply.lambda = p.lambda;
      network.send(reply);
    });
  }
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {w[0], w[1]});
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      EXPECT_TRUE(r.ok());
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(hits[0], 5);
  EXPECT_EQ(hits[1], 5);
}

TEST(Gateway, SyncsRoutesFromEtcd) {
  sim::Simulator sim;
  net::Network network(sim);
  kvstore::EtcdStore etcd(sim, 3);
  etcd.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(
      etcd.put("route/fn_a", Gateway::encode_replicas(5, {Replica{9}})).ok());
  sim.run_until(seconds(3));

  Gateway gateway(sim, network);
  gateway.sync_with(etcd);
  ASSERT_TRUE(gateway.has_function("fn_a"));  // existing entries applied
  // Watch picks up later changes.
  ASSERT_TRUE(etcd.put("route/fn_b", Gateway::encode_replicas(
                                         6, {Replica{4}, Replica{5}}))
                  .ok());
  sim.run_until(seconds(4));
  ASSERT_TRUE(gateway.has_function("fn_b"));
  EXPECT_EQ(gateway.route("fn_b")->workload, 6u);
}

TEST(Manager, DeployRegistersRoutesAndArtifacts) {
  GatewayRig rig;
  BlobStorage storage;
  WorkloadManager manager(rig.sim, storage, nullptr);
  std::vector<backends::Backend*> pool = {rig.backend.get()};
  auto record = manager.deploy(workloads::make_standard_workloads(), pool,
                               &rig.gateway);
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().functions.size(), 4u);
  EXPECT_GT(record.value().artifact_bytes, 0u);
  EXPECT_GT(record.value().startup_time, 0);
  EXPECT_TRUE(rig.gateway.has_function("web_server"));
  EXPECT_TRUE(rig.gateway.has_function("image_transformer"));
  EXPECT_FALSE(storage.list().empty());
  EXPECT_EQ(manager.deployments().size(), 1u);
}

TEST(Manager, TenantDeployNamespacesRoutesAndInstallsQuota) {
  GatewayRig rig;
  BlobStorage storage;
  WorkloadManager manager(rig.sim, storage, nullptr);
  nicsim::TenantQuota quota;
  quota.instr_store_words = 1 << 20;
  quota.emem_bytes = 1 << 30;
  manager.set_tenant_quota("acme", quota);

  std::vector<backends::Backend*> pool = {rig.backend.get()};
  auto record = manager.deploy(workloads::make_standard_workloads(), pool,
                               &rig.gateway, "acme");
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().tenant, "acme");
  EXPECT_NE(record.value().tenant_id, kDefaultTenant);
  // Routes live in the tenant namespace, carrying the tenant id.
  EXPECT_FALSE(rig.gateway.has_function("web_server"));
  ASSERT_TRUE(rig.gateway.has_function("acme/web_server"));
  EXPECT_EQ(rig.gateway.route("acme/web_server")->tenant,
            record.value().tenant_id);
  // The quota and workload assignments landed on the NIC before deploy;
  // usage is attributed to the tenant.
  auto& nic = static_cast<backends::LambdaNicBackend&>(*pool[0]).nic();
  EXPECT_EQ(nic.tenant_of(workloads::kWebServerId), record.value().tenant_id);
  const nicsim::TenantUsage* usage =
      nic.tenant_usage(record.value().tenant_id);
  ASSERT_NE(usage, nullptr);
  EXPECT_GT(usage->instr_words, 0u);
  // An impossible quota rejects a re-deploy outright.
  manager.set_tenant_quota("tiny", nicsim::TenantQuota{.instr_store_words = 1});
  auto rejected = manager.deploy(workloads::make_standard_workloads(), pool,
                                 &rig.gateway, "tiny");
  EXPECT_FALSE(rejected.ok());
}

TEST(Gateway, RateLimitThrottlesExcessTraffic) {
  // §7 security: the gateway blocks malicious request floods.
  sim::Simulator sim;
  net::Network network(sim);
  NodeId worker = network.attach(nullptr);
  network.set_handler(worker, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = worker;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {worker});
  gateway.set_rate_limit("f", RateLimit{/*rps=*/100.0, /*burst=*/10.0});

  int ok = 0, throttled = 0;
  // Burst of 50 back-to-back requests: ~10 pass (the burst), rest fail.
  for (int i = 0; i < 50; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) {
        ++ok;
      } else {
        ++throttled;
      }
    });
  }
  sim.run();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(throttled, 40);
  EXPECT_EQ(gateway.metrics().counter("gateway_throttled_total{fn=f}").value(),
            40u);

  // After a second the bucket refills and requests flow again.
  sim.run_until(sim.now() + seconds(1));
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    EXPECT_TRUE(r.ok());
    ++ok;
  });
  sim.run();
  EXPECT_EQ(ok, 11);
}

TEST(Gateway, SteadyRateUnderLimitPasses) {
  sim::Simulator sim;
  net::Network network(sim);
  NodeId worker = network.attach(nullptr);
  network.set_handler(worker, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = worker;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {worker});
  gateway.set_rate_limit("f", RateLimit{1000.0, 2.0});
  int ok = 0;
  sim::PeriodicTimer load(sim, milliseconds(2), [&] {  // 500 rps < 1000
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  });
  load.start();
  sim.run_until(seconds(1));
  load.stop();
  sim.run();
  EXPECT_EQ(ok, 500);
}

TEST(Gateway, FailsOverToReplicaWhenWorkerDies) {
  sim::Simulator sim;
  net::Network network(sim);
  // Worker 0 is dead (never replies); worker 1 echoes.
  NodeId dead = network.attach(nullptr);
  NodeId live = network.attach(nullptr);
  network.set_handler(live, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = live;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    reply.payload = {42};
    network.send(reply);
  });
  GatewayConfig config;
  config.failover_attempts = 1;
  config.rpc.retransmit_timeout = milliseconds(5);
  config.rpc.max_retries = 2;
  Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, {dead, live});

  int ok = 0, failed = 0;
  for (int i = 0; i < 6; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) {
        ++ok;
      } else {
        ++failed;
      }
    });
  }
  sim.run_until(milliseconds(200));
  // Requests that initially hit the dead worker fail over to the live
  // one; after the first failure the dead worker is quarantined (kept in
  // the route, skipped by the dispatcher) rather than removed.
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(failed, 0);
  ASSERT_NE(gateway.route("f"), nullptr);
  EXPECT_EQ(gateway.route("f")->workers,
            (std::vector<NodeId>{dead, live}));
  EXPECT_TRUE(gateway.is_quarantined(dead));
  EXPECT_FALSE(gateway.is_quarantined(live));
  EXPECT_GE(
      gateway.metrics().counter("gateway_failovers_total{fn=f}").value(), 1u);
  EXPECT_GE(gateway.metrics().counter("gateway_quarantine_total").value(), 1u);
  // Once the cooldown lapses the worker re-enters the rotation on its
  // own (no manager intervention).
  sim.run();
  EXPECT_FALSE(gateway.is_quarantined(dead));
}

/// A worker that answers each request with its own payload; `alive`
/// false makes it drop everything.
struct PayloadEcho {
  net::Network& network;
  NodeId node;
  bool alive = true;

  explicit PayloadEcho(net::Network& net) : network(net) {
    node = network.attach(nullptr);
    network.set_handler(node, [this](const net::Packet& p) {
      if (!alive || p.kind != net::PacketKind::kRequest) return;
      net::Packet reply;
      reply.src = node;
      reply.dst = p.src;
      reply.kind = net::PacketKind::kResponse;
      reply.lambda = p.lambda;
      reply.payload = p.payload;
      network.send(reply);
    });
  }
};

std::vector<std::uint8_t> pattern(int seed, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  }
  return bytes;
}

TEST(Gateway, CallbackThatInvokesAgainGetsAFreshRecord) {
  // Each reply's callback invokes the next request before returning. The
  // finished request's record is already parked, so the next one may
  // take it over; each callback must still see only its own reply.
  sim::Simulator sim;
  net::Network network(sim);
  PayloadEcho echo(network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {echo.node});
  constexpr int kDepth = 6;
  std::vector<int> order;
  std::function<void(int)> invoke_from = [&](int i) {
    gateway.invoke("f", pattern(i, 100), [&, i](Result<proto::RpcResponse> r) {
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().payload, pattern(i, 100)) << "request " << i;
      order.push_back(i);
      if (i + 1 < kDepth) invoke_from(i + 1);
      // Still this request's reply after the nested invoke.
      EXPECT_EQ(r.value().payload, pattern(i, 100)) << "request " << i;
    });
  };
  invoke_from(0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(gateway.rpc().inflight(), 0u);
}

TEST(Gateway, FailoverThroughARecycledRecordKeepsThePayload) {
  // Request 0 goes to a dead worker while others complete on the live
  // one, so its record is parked and reused around its failover. The
  // failover must resend request 0's own bytes and call back once.
  sim::Simulator sim;
  net::Network network(sim);
  PayloadEcho dead(network);
  dead.alive = false;
  PayloadEcho live(network);
  GatewayConfig config;
  config.failover_attempts = 1;
  config.rpc.retransmit_timeout = milliseconds(1);
  config.rpc.max_retries = 1;
  Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, {dead.node, live.node});
  std::map<int, std::vector<std::vector<std::uint8_t>>> replies;
  auto invoke = [&](int i) {
    gateway.invoke("f", pattern(i, 1000), [&, i](Result<proto::RpcResponse> r) {
      ASSERT_TRUE(r.ok()) << "request " << i;
      replies[i].push_back(r.value().payload.to_vector());
    });
  };
  invoke(0);  // round robin: the dead worker
  for (int i = 1; i < 8; ++i) {
    sim.schedule(microseconds(100) * i, [&invoke, i] { invoke(i); });
  }
  sim.run();
  ASSERT_EQ(replies.size(), 8u);
  for (const auto& [i, got] : replies) {
    ASSERT_EQ(got.size(), 1u) << "request " << i;
    EXPECT_EQ(got[0], pattern(i, 1000)) << "request " << i;
  }
  EXPECT_GE(gateway.metrics().counter("gateway_failovers_total{fn=f}").value(),
            1u);
}

TEST(Gateway, FailoverExhaustionReportsError) {
  sim::Simulator sim;
  net::Network network(sim);
  NodeId dead1 = network.attach(nullptr);
  NodeId dead2 = network.attach(nullptr);
  GatewayConfig config;
  config.failover_attempts = 1;
  config.rpc.retransmit_timeout = milliseconds(2);
  config.rpc.max_retries = 1;
  Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, {dead1, dead2});
  bool failed = false;
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST(Gateway, RemoveWorkerDropsFromAllRoutes) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);
  gateway.register_function("a", 1, {10, 11});
  gateway.register_function("b", 2, {11, 12});
  gateway.remove_worker(11);
  EXPECT_EQ(gateway.route("a")->workers, (std::vector<NodeId>{10}));
  EXPECT_EQ(gateway.route("b")->workers, (std::vector<NodeId>{12}));
}

TEST(Monitor, ScrapesBackendGauges) {
  sim::Simulator sim;
  net::Network network(sim);
  auto backend = backends::make_backend(backends::BackendKind::kLambdaNic,
                                        sim, network);
  backend->set_tenant_of(workloads::kWebServerId, 4);
  backend->set_tenant_quota(4, {.instr_store_words = 1u << 20});
  Monitor monitor(sim);
  monitor.watch_backend("m2", backend.get());
  // Nothing deployed yet: the card's instruction store is empty.
  EXPECT_EQ(monitor.metrics().gauge("nic_instr_store_words{node=m2}"), 0.0);
  EXPECT_FALSE(monitor.metrics().has(
      "nic_tenant_mem_bytes{node=m2,region=emem,tenant=4}"));

  // Reading the registry after the deploy shows it, with no scrape call.
  ASSERT_TRUE(backend->deploy(workloads::make_standard_workloads()).ok());
  sim.run();
  EXPECT_GT(monitor.metrics().gauge("nic_instr_store_words{node=m2}"), 0.0);
  EXPECT_TRUE(monitor.metrics().has("backend_completed{node=m2}"));
  EXPECT_GT(monitor.metrics().gauge("backend_nic_mem_mib{node=m2}"), 0.0);
  // Per-tenant footprint + quota gauges for the assigned tenant.
  EXPECT_GT(
      monitor.metrics().gauge("nic_tenant_instr_words{node=m2,tenant=4}"),
      0.0);
  EXPECT_TRUE(monitor.metrics().has(
      "nic_tenant_mem_bytes{node=m2,region=emem,tenant=4}"));
  EXPECT_EQ(monitor.metrics().gauge(
                "nic_tenant_quota_instr_words{node=m2,tenant=4}"),
            static_cast<double>(1u << 20));
}

TEST(HealthChecker, RemovesDeadWorkerFromRoutes) {
  sim::Simulator sim;
  net::Network network(sim);
  // One live echo worker, one that dies after 200 ms.
  bool worker0_alive = true;
  NodeId w0 = network.attach(nullptr);
  NodeId w1 = network.attach(nullptr);
  auto echo = [&](NodeId self, bool* alive) {
    return [&network, self, alive](const net::Packet& p) {
      if (alive != nullptr && !*alive) return;
      if (p.kind != net::PacketKind::kRequest) return;
      net::Packet reply;
      reply.src = self;
      reply.dst = p.src;
      reply.kind = net::PacketKind::kResponse;
      reply.lambda = p.lambda;
      network.send(reply);
    };
  };
  network.set_handler(w0, echo(w0, &worker0_alive));
  network.set_handler(w1, echo(w1, nullptr));

  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {w0, w1});

  HealthConfig config;
  config.probe_interval = milliseconds(100);
  config.probe_timeout = milliseconds(30);
  config.max_failures = 3;
  HealthChecker checker(sim, network, gateway, config);
  checker.watch(w0, {});
  checker.watch(w1, {});
  NodeId reported_dead = kInvalidNode;
  checker.set_on_dead([&](NodeId n) { reported_dead = n; });
  checker.start();

  sim.run_until(milliseconds(250));
  EXPECT_TRUE(checker.is_healthy(w0));
  EXPECT_TRUE(checker.is_healthy(w1));

  worker0_alive = false;  // w0 crashes
  sim.run_until(milliseconds(250) + milliseconds(600));
  // The dead worker stays in the route but is quarantined in the gateway
  // (the dispatcher skips it until a probe succeeds again).
  EXPECT_FALSE(checker.is_healthy(w0));
  EXPECT_TRUE(checker.is_healthy(w1));
  EXPECT_EQ(gateway.route("f")->workers, (std::vector<NodeId>{w0, w1}));
  EXPECT_TRUE(gateway.is_quarantined(w0));
  EXPECT_FALSE(gateway.is_quarantined(w1));
  checker.stop();
  sim.run();
  EXPECT_FALSE(checker.is_healthy(w0));
  EXPECT_EQ(reported_dead, w0);
  EXPECT_EQ(checker.quarantines(), 1u);
}

TEST(HealthChecker, TransientFailureDoesNotKill) {
  sim::Simulator sim;
  net::Network network(sim);
  int drop_next = 1;  // drop exactly one probe
  NodeId w = network.attach(nullptr);
  network.set_handler(w, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    if (drop_next > 0) {
      --drop_next;
      return;
    }
    net::Packet reply;
    reply.src = w;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {w});
  HealthConfig config;
  config.probe_interval = milliseconds(50);
  config.probe_timeout = milliseconds(20);
  config.max_failures = 3;
  HealthChecker checker(sim, network, gateway, config);
  checker.watch(w, {});
  checker.start();
  sim.run_until(milliseconds(500));
  checker.stop();
  sim.run();
  EXPECT_TRUE(checker.is_healthy(w));
  EXPECT_EQ(gateway.route("f")->workers.size(), 1u);
}

TEST(Autoscaler, ScalesUpUnderLoadAndBackDown) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);
  // A single instant echo worker keeps requests flowing.
  NodeId worker = network.attach(nullptr);
  network.set_handler(worker, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = worker;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  gateway.register_function("hot", 1, {worker});

  std::map<std::string, std::uint32_t> provisioned;
  AutoscalerConfig config;
  config.evaluation_period = milliseconds(100);
  config.target_rps_per_replica = 100.0;
  config.max_replicas = 10;
  // Short hysteresis so the scale-down lands inside the test window.
  config.scale_down_evals = 2;
  config.scale_down_cooldown = milliseconds(200);
  Autoscaler scaler(sim, gateway, config,
                    [&](const std::string& name, std::uint32_t replicas) {
                      provisioned[name] = replicas;
                    });
  scaler.track("hot");
  scaler.start();

  // Offer ~1000 rps for half a second.
  sim::PeriodicTimer load(sim, milliseconds(1), [&] {
    gateway.invoke("hot", {}, nullptr);
  });
  load.start();
  sim.run_until(milliseconds(500));
  load.stop();
  EXPECT_GE(scaler.replicas("hot"), 5u);
  EXPECT_GE(provisioned["hot"], 5u);

  // Load stops; the scaler settles back to the minimum.
  sim.run_until(milliseconds(1500));
  scaler.stop();
  sim.run();
  EXPECT_EQ(scaler.replicas("hot"), config.min_replicas);
  EXPECT_GT(scaler.scale_events(), 1u);
}

// ------------------------------------------------------------ tenancy

TEST(Gateway, TenantReplicaEncodingRoundTrips) {
  const std::vector<Replica> replicas = {Replica{1, 0},
                                         Replica{2, kUnknownBackendKind}};
  const auto encoded = Gateway::encode_replicas(7, replicas, 3);
  EXPECT_EQ(encoded, "7~3|1@0,2");
  const auto decoded = Gateway::decode_route(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().workload, 7u);
  EXPECT_EQ(decoded.value().tenant, 3u);
  EXPECT_EQ(decoded.value().replicas, replicas);
  // The default tenant keeps the legacy encoding byte-for-byte.
  EXPECT_EQ(Gateway::encode_replicas(7, replicas), "7|1@0,2");
  const auto legacy = Gateway::decode_route("7|1,2");
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().tenant, kDefaultTenant);
  // Malformed tenant suffixes are rejected.
  EXPECT_FALSE(Gateway::decode_route("7~|1").ok());
  EXPECT_FALSE(Gateway::decode_route("7~0|1").ok());
  EXPECT_FALSE(Gateway::decode_route("7~x|1").ok());
  EXPECT_FALSE(Gateway::decode_route("~3|1").ok());
}

TEST(Gateway, TenantRouteStampsHeaderAndLabelsMetrics) {
  sim::Simulator sim;
  net::Network network(sim);
  TenantId seen_tenant = kDefaultTenant;
  NodeId worker = network.attach(nullptr);
  network.set_handler(worker, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    seen_tenant = p.lambda.tenant_id;
    net::Packet reply;
    reply.src = worker;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  Gateway gateway(sim, network);
  const TenantId acme = gateway.register_tenant("acme");
  EXPECT_EQ(acme, 1u);
  EXPECT_EQ(gateway.register_tenant("acme"), acme);  // idempotent
  gateway.register_replicas("acme/echo", 5,
                            {Replica{worker, kUnknownBackendKind}}, acme);

  std::optional<Result<proto::RpcResponse>> got;
  gateway.invoke("acme/echo", {},
                 [&](Result<proto::RpcResponse> r) { got = std::move(r); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  // The tenant id rode the lambda header to the worker.
  EXPECT_EQ(seen_tenant, acme);
  // Metrics carry the tenant label; the tenant-less series stays clean.
  const Labels labeled = gateway.metric_labels("acme/echo");
  EXPECT_EQ(gateway.metrics().counter("gateway_requests_total", labeled)
                .value(),
            1u);
  EXPECT_EQ(
      gateway.metrics()
          .counter("gateway_requests_total", {{"fn", "acme/echo"}})
          .value(),
      0u);
}

TEST(Autoscaler, TrackProvisionsMinReplicasImmediately) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);
  std::map<std::string, std::uint32_t> provisioned;
  AutoscalerConfig config;
  config.min_replicas = 2;
  Autoscaler scaler(sim, gateway, config,
                    [&](const std::string& name, std::uint32_t replicas) {
                      provisioned[name] = replicas;
                    });
  scaler.track("f");
  // The floor is provisioned on track(), not first evaluation.
  EXPECT_EQ(provisioned["f"], 2u);
  EXPECT_EQ(scaler.replicas("f"), 2u);
  // Re-tracking is a no-op, not a re-provision.
  provisioned.clear();
  scaler.track("f");
  EXPECT_TRUE(provisioned.empty());
}

TEST(Autoscaler, ScaleDownWaitsForStreakAndCooldown) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);
  NodeId worker = network.attach(nullptr);
  network.set_handler(worker, [&](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = worker;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    network.send(reply);
  });
  gateway.register_function("f", 1, {worker});

  AutoscalerConfig config;
  config.evaluation_period = milliseconds(100);
  config.target_rps_per_replica = 100.0;
  config.max_replicas = 10;
  config.scale_down_evals = 3;
  config.scale_down_cooldown = seconds(1);
  std::uint32_t downs = 0;
  std::uint32_t last = config.min_replicas;
  Autoscaler scaler(sim, gateway, config,
                    [&](const std::string&, std::uint32_t replicas) {
                      if (replicas < last) ++downs;
                      last = replicas;
                    });
  scaler.track("f");
  scaler.start();

  // Bursty on-off load: 100 ms of ~1000 rps, then 200 ms idle, repeated.
  // Idle gaps produce at most 2 consecutive low evaluations — under the
  // streak of 3 — so the pre-hysteresis scaler would flap down/up every
  // cycle while this one must hold its size.
  sim::PeriodicTimer load(sim, milliseconds(1), [&] {
    gateway.invoke("f", {}, nullptr);
  });
  for (int cycle = 0; cycle < 5; ++cycle) {
    load.start();
    sim.run_until(sim.now() + milliseconds(100));
    load.stop();
    sim.run_until(sim.now() + milliseconds(200));
  }
  EXPECT_EQ(downs, 0u);
  EXPECT_GE(scaler.replicas("f"), 5u);

  // A sustained quiet period finally releases capacity — once, to the
  // floor, not step-by-flapping-step.
  sim.run_until(sim.now() + seconds(3));
  scaler.stop();
  sim.run();
  EXPECT_EQ(scaler.replicas("f"), config.min_replicas);
  EXPECT_EQ(downs, 1u);
}

TEST(Autoscaler, ScalesFromZeroOnOfferedSignal) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);

  AutoscalerConfig config;
  config.evaluation_period = milliseconds(100);
  config.target_rps_per_replica = 100.0;
  config.min_replicas = 0;
  std::uint32_t provisioned = 123;
  Autoscaler scaler(sim, gateway, config,
                    [&](const std::string&, std::uint32_t replicas) {
                      provisioned = replicas;
                    });
  scaler.track("cold");
  EXPECT_EQ(provisioned, 0u);  // scale-to-zero floor

  // No gateway route exists, so gateway_requests_total never moves; the
  // offered count from the SLO signal is the only wake-up source.
  std::uint64_t offered = 0;
  scaler.set_signal([&](const std::string&) {
    SloSignal signal;
    signal.valid = true;
    signal.offered = offered;
    return signal;
  });
  scaler.start();
  sim.run_until(milliseconds(150));
  EXPECT_EQ(scaler.replicas("cold"), 0u);

  offered = 50;  // 50 requests arrive while scaled to zero
  sim.run_until(milliseconds(250));
  scaler.stop();
  sim.run();
  EXPECT_GE(scaler.replicas("cold"), 1u);
  EXPECT_GE(provisioned, 1u);
}

TEST(Autoscaler, HighP99GrowsReplicasBeyondRateTarget) {
  sim::Simulator sim;
  net::Network network(sim);
  Gateway gateway(sim, network);

  AutoscalerConfig config;
  config.evaluation_period = milliseconds(100);
  config.target_rps_per_replica = 1000.0;  // rate alone says 1 replica
  config.target_p99_ms = 5.0;
  config.max_replicas = 4;
  Autoscaler scaler(sim, gateway, config,
                    [](const std::string&, std::uint32_t) {});
  scaler.track("slow");

  std::uint64_t offered = 0;
  double p99 = 20.0;  // way over the 5 ms target
  scaler.set_signal([&](const std::string&) {
    SloSignal signal;
    signal.valid = true;
    signal.offered = offered;
    signal.p99_ms = p99;
    return signal;
  });
  scaler.start();

  // ~10 rps of demand with a violated p99: rate says stay at 1, the
  // latency signal forces +1 per evaluation up to the cap.
  sim::PeriodicTimer demand(sim, milliseconds(100), [&] { offered += 1; });
  demand.start();
  sim.run_until(milliseconds(450));
  EXPECT_GE(scaler.replicas("slow"), 3u);

  p99 = 1.0;  // back under target: growth stops (no further ups)
  const std::uint32_t at_recovery = scaler.replicas("slow");
  sim.run_until(milliseconds(750));
  demand.stop();
  scaler.stop();
  sim.run();
  EXPECT_EQ(scaler.replicas("slow"), at_recovery);
}

// --------------------------------------------- quarantine and overload

/// Two echo workers with per-worker hit counts and a kill switch.
struct EchoPair {
  sim::Simulator& sim;
  net::Network& network;
  NodeId node[2];
  int hits[2] = {0, 0};
  bool alive[2] = {true, true};

  explicit EchoPair(sim::Simulator& s, net::Network& net)
      : sim(s), network(net) {
    for (int i = 0; i < 2; ++i) {
      node[i] = network.attach(nullptr);
      network.set_handler(node[i], [this, i](const net::Packet& p) {
        if (!alive[i] || p.kind != net::PacketKind::kRequest) return;
        ++hits[i];
        net::Packet reply;
        reply.src = node[i];
        reply.dst = p.src;
        reply.kind = net::PacketKind::kResponse;
        reply.lambda = p.lambda;
        reply.payload = {static_cast<std::uint8_t>(i)};
        network.send(reply);
      });
    }
  }
};

TEST(Gateway, QuarantinedWorkerIsSkippedAndReinstated) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0], workers.node[1]});

  gateway.quarantine_worker(workers.node[0]);
  EXPECT_TRUE(gateway.is_quarantined(workers.node[0]));
  EXPECT_EQ(gateway.quarantined_count(), 1u);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run_until(milliseconds(10));
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(workers.hits[0], 0);  // skipped while quarantined
  EXPECT_EQ(workers.hits[1], 10);

  gateway.reinstate_worker(workers.node[0]);
  EXPECT_FALSE(gateway.is_quarantined(workers.node[0]));
  for (int i = 0; i < 10; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run();
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(workers.hits[0], 5);  // back in the weighted rotation
  EXPECT_EQ(workers.hits[1], 15);
}

TEST(Gateway, AllQuarantinedFallsBackToFullReplicaSet) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0], workers.node[1]});
  gateway.quarantine_worker(workers.node[0]);
  gateway.quarantine_worker(workers.node[1]);
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run_until(milliseconds(10));
  // Traffic keeps flowing (and keeps probing) instead of failing
  // unroutable when every replica is sidelined.
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(workers.hits[0] + workers.hits[1], 4);
}

TEST(Gateway, ShedsWhenConcurrencyAndQueueAreFull) {
  sim::Simulator sim;
  net::Network network(sim);
  // A worker that replies only after 10 ms, so requests pile up.
  net::Network* net_ptr = &network;
  NodeId slow = network.attach(nullptr);
  network.set_handler(slow, [&, slow](const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.src = slow;
    reply.dst = p.src;
    reply.kind = net::PacketKind::kResponse;
    reply.lambda = p.lambda;
    sim.schedule(milliseconds(10), [net_ptr, reply] { net_ptr->send(reply); });
  });
  GatewayConfig config;
  config.max_inflight_per_function = 1;
  config.max_queue_depth = 1;
  config.queue_deadline = seconds(1);  // no deadline shedding here
  config.rpc.retransmit_timeout = milliseconds(50);
  Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, {slow});

  int ok = 0, overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) {
        ++ok;
      } else {
        EXPECT_NE(r.error().message.find("overloaded"), std::string::npos);
        ++overloaded;
      }
    });
  }
  // The third arrival is shed synchronously (limiter full, queue full).
  EXPECT_EQ(overloaded, 1);
  sim.run();
  EXPECT_EQ(ok, 2);  // inflight + the queued one complete in turn
  EXPECT_EQ(
      gateway.metrics().counter("gateway_shed_total{fn=f}").value(), 1u);
  // Shed is distinct from rate-limit throttling.
  EXPECT_EQ(
      gateway.metrics().counter("gateway_throttled_total{fn=f}").value(), 0u);
}

TEST(Gateway, QueueDeadlineShedsStaleRequests) {
  sim::Simulator sim;
  net::Network network(sim);
  NodeId dead = network.attach(nullptr);  // never replies
  GatewayConfig config;
  config.max_inflight_per_function = 1;
  config.max_queue_depth = 8;
  config.queue_deadline = milliseconds(5);
  config.failover_attempts = 0;
  config.rpc.retransmit_timeout = milliseconds(20);
  config.rpc.max_retries = 2;  // first request fails after ~60 ms
  Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, {dead});

  std::vector<std::string> errors;
  SimTime second_failed_at = -1;
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    errors.push_back(r.error().message);
  });
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    errors.push_back(r.error().message);
    second_failed_at = sim.now();
  });
  sim.run();
  ASSERT_EQ(errors.size(), 2u);
  // The queued request was shed at its 5 ms deadline — long before the
  // inflight one exhausted its retransmissions — with the overload error.
  EXPECT_NE(errors[0].find("deadline"), std::string::npos);
  EXPECT_EQ(second_failed_at, milliseconds(5));
  EXPECT_EQ(
      gateway.metrics().counter("gateway_shed_total{fn=f}").value(), 1u);
}

TEST(Gateway, RouteUpdateDuringProxyDelayIsHonored) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0]});
  int ok = 0;
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    if (r.ok()) ++ok;
  });
  // The request is inside the proxy/NAT stage; an etcd-style update
  // replaces the route before it reaches the wire.
  gateway.register_function("f", 1, {workers.node[1]});
  sim.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(workers.hits[0], 0);  // stale worker never contacted
  EXPECT_EQ(workers.hits[1], 1);
}

TEST(Gateway, RouteVanishingDuringProxyDelayFailsCleanly) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0]});
  std::string error;
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    ASSERT_FALSE(r.ok());
    error = r.error().message;
  });
  gateway.remove_worker(workers.node[0]);  // operator drains the worker
  sim.run();
  EXPECT_NE(error.find("no workers"), std::string::npos);
  EXPECT_EQ(workers.hits[0], 0);
  EXPECT_GE(gateway.metrics().counter("gateway_unroutable_total").value(), 1u);
}

TEST(HealthChecker, QuarantineProbeReinstateRoundTrip) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0], workers.node[1]});

  HealthConfig config;
  config.probe_interval = milliseconds(100);
  config.probe_timeout = milliseconds(30);
  config.max_failures = 2;
  HealthChecker checker(sim, network, gateway, config);
  checker.watch(workers.node[0], {});
  checker.watch(workers.node[1], {});
  NodeId recovered = kInvalidNode;
  checker.set_on_recovered([&](NodeId n) { recovered = n; });
  checker.start();

  workers.alive[0] = false;  // crash
  sim.run_until(milliseconds(400));
  EXPECT_FALSE(checker.is_healthy(workers.node[0]));
  EXPECT_TRUE(gateway.is_quarantined(workers.node[0]));
  EXPECT_EQ(checker.quarantines(), 1u);

  workers.alive[0] = true;  // recover
  sim.run_until(milliseconds(700));
  checker.stop();
  // The next successful probe reinstated the worker automatically.
  EXPECT_TRUE(checker.is_healthy(workers.node[0]));
  EXPECT_FALSE(gateway.is_quarantined(workers.node[0]));
  EXPECT_EQ(checker.recoveries(), 1u);
  EXPECT_EQ(recovered, workers.node[0]);

  // And it serves traffic again without manager intervention.
  int before = workers.hits[0];
  int ok = 0;
  for (int i = 0; i < 8; ++i) {
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run();
  EXPECT_EQ(ok, 8);
  EXPECT_GT(workers.hits[0], before);
}

// ------------------------------------------------- bound metric handles

/// Number of exposition lines in `text` that read exactly `line`.
int count_lines(const std::string& text, const std::string& line) {
  int n = 0;
  for (std::size_t at = text.find(line); at != std::string::npos;
       at = text.find(line, at + 1)) {
    if ((at == 0 || text[at - 1] == '\n') && at + line.size() < text.size() &&
        text[at + line.size()] == '\n') {
      ++n;
    }
  }
  return n;
}

TEST(Gateway, HotPathSeriesAppearOnFirstSuccessfulInvoke) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  gateway.register_function("f", 1, {workers.node[0]});
  gateway.register_function("g", 1, {workers.node[1]});
  gateway.set_rate_limit("g", RateLimit{/*rps=*/1.0, /*burst=*/0.0});

  std::string text = gateway.metrics().render();
  EXPECT_EQ(text.find("fn=\"f\""), std::string::npos) << text;

  int ok = 0, throttled = 0;
  gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) {
    if (r.ok()) ++ok;
  });
  for (int i = 0; i < 3; ++i) {
    gateway.invoke("g", {}, [&](Result<proto::RpcResponse> r) {
      if (!r.ok()) ++throttled;
    });
  }
  sim.run();
  ASSERT_EQ(ok, 1);
  ASSERT_EQ(throttled, 3);
  text = gateway.metrics().render();
  EXPECT_EQ(count_lines(text, "gateway_requests_total{fn=\"f\"} 1"), 1) << text;
  EXPECT_EQ(count_lines(text, "gateway_latency_ns_count{fn=\"f\"} 1"), 1);
  EXPECT_EQ(
      count_lines(text, "rpc_latency_ns_count{backend=\"unknown\",fn=\"f\"} 1"),
      1);
  // Only ever throttled: the throttle counter is g's one series, so no
  // request, latency or rpc_latency_ns series exists for it.
  EXPECT_EQ(count_lines(text, "gateway_throttled_total{fn=\"g\"} 3"), 1);
  EXPECT_EQ(text.find("fn=\"g\""), text.rfind("fn=\"g\"")) << text;

  // Replicas on two backend kinds: one rpc_latency_ns series per kind.
  gateway.register_replicas("h", 1,
                            {Replica{workers.node[0], /*nic=*/0},
                             Replica{workers.node[1], /*container=*/2}});
  for (int i = 0; i < 2; ++i) {
    gateway.invoke("h", {}, [&](Result<proto::RpcResponse> r) {
      if (r.ok()) ++ok;
    });
  }
  sim.run();
  ASSERT_EQ(ok, 3);
  text = gateway.metrics().render();
  EXPECT_EQ(count_lines(text, "rpc_latency_ns_count{backend=\"nic\",fn=\"h\"} 1"),
            1);
  EXPECT_EQ(count_lines(
                text, "rpc_latency_ns_count{backend=\"container\",fn=\"h\"} 1"),
            1);
}

TEST(Gateway, TenantChangeRebindsRequestAndRpcSeries) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPair workers(sim, network);
  Gateway gateway(sim, network);
  const auto invoke_once = [&] {
    bool ok = false;
    gateway.invoke("f", {}, [&](Result<proto::RpcResponse> r) { ok = r.ok(); });
    sim.run();
    return ok;
  };
  const Replica replica{workers.node[0], kUnknownBackendKind};

  // First request in the default tenant, second after the route moved
  // into a tenant namespace.
  gateway.register_function("f", 1, {workers.node[0]});
  ASSERT_TRUE(invoke_once());
  gateway.register_replicas("f", 1, {replica}, gateway.register_tenant("acme"));
  ASSERT_TRUE(invoke_once());
  // A route mirrored into a namespace nobody has named yet is labelled
  // "tenant-<id>" until the name is registered.
  gateway.register_replicas("f", 1, {replica}, 2);
  ASSERT_TRUE(invoke_once());
  EXPECT_EQ(gateway.register_tenant("globex"), 2u);
  ASSERT_TRUE(invoke_once());

  const std::string text = gateway.metrics().render();
  for (const char* labels :
       {"fn=\"f\"", "fn=\"f\",tenant=\"acme\"", "fn=\"f\",tenant=\"tenant-2\"",
        "fn=\"f\",tenant=\"globex\""}) {
    EXPECT_EQ(count_lines(text, std::string("gateway_requests_total{") +
                                    labels + "} 1"),
              1)
        << labels << "\n" << text;
    EXPECT_EQ(count_lines(text, std::string("rpc_latency_ns_count{") +
                                    "backend=\"unknown\"," + labels + "} 1"),
              1)
        << labels;
  }
  // The latency sampler is labelled by name only and never rebinds.
  EXPECT_EQ(count_lines(text, "gateway_latency_ns_count{fn=\"f\"} 4"), 1);
}

}  // namespace
}  // namespace lnic::framework
