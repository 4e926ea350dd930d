// Tests for the host CPU model: correctness of served responses, context
// switch accounting, thread limits, KV blocking behaviour, and the
// latency ordering the paper's baselines exhibit.
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "hostsim/host.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::hostsim {
namespace {

using net::Packet;
using net::PacketKind;
using workloads::encode_image_request;
using workloads::encode_kv_request;
using workloads::encode_web_request;

struct Rig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<HostServer> host;
  std::unique_ptr<kvstore::CacheServer> cache;
  NodeId client = kInvalidNode;
  std::vector<Packet> responses;
  std::vector<SimTime> response_times;
  workloads::WorkloadBundle bundle;

  explicit Rig(HostConfig config = {}) {
    host = std::make_unique<HostServer>(sim, network, config);
    cache = std::make_unique<kvstore::CacheServer>(sim, network);
    host->set_kv_server(cache->node());
    client = network.attach([this](const Packet& p) {
      if (p.kind == PacketKind::kResponse) {
        responses.push_back(p);
        response_times.push_back(sim.now());
      }
    });
    bundle = workloads::make_standard_workloads();
    auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
    EXPECT_TRUE(compiled.ok());
    host->deploy(std::make_shared<const microc::Program>(
        std::move(compiled).value().program));
  }

  void send(WorkloadId wid, net::BufferView body, RequestId id) {
    net::LambdaHeader hdr;
    hdr.workload_id = wid;
    hdr.request_id = id;
    net::fragment(client, host->node(), PacketKind::kRequest, hdr, body,
                  [this](Packet f) { network.send(std::move(f)); });
  }
};

TEST(HostServer, ServesWebRequestCorrectly) {
  Rig rig;
  rig.send(workloads::kWebServerId, encode_web_request(2), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  const auto& body = rig.responses[0].payload;
  const std::string page(body.begin() + 8, body.end());
  EXPECT_EQ(page, workloads::expected_web_page(rig.bundle, 2));
}

TEST(HostServer, TeardownFreesRequestsInService) {
  // A request in service is owned by the pending event that ends its
  // stage. Destroying the rig with that event still queued must free
  // the request and its body, whether it sits in the kernel stage (just
  // delivered) or on the GIL (executing).
  for (const bool on_gil : {false, true}) {
    SCOPED_TRACE(on_gil ? "on the GIL" : "in the kernel stage");
    auto rig = std::make_unique<Rig>();
    const net::BufferView body(encode_web_request(1));
    rig->send(workloads::kWebServerId, body, 1);
    const std::uint64_t delivered = rig->network.packets_delivered();
    const auto in_stage = [&] {
      return on_gil ? rig->host->stats().context_switches > 0
                    : rig->network.packets_delivered() > delivered;
    };
    while (!in_stage() && rig->sim.step()) {
    }
    ASSERT_TRUE(in_stage());
    // One core busy, not yet answered, and held by the job besides this
    // test.
    ASSERT_EQ(rig->host->busy_cores(), 1u);
    ASSERT_EQ(rig->host->stats().requests_completed, 0u);
    ASSERT_EQ(body.buffer().use_count(), 2);
    rig.reset();
    EXPECT_EQ(body.buffer().use_count(), 1);
  }
}

TEST(HostServer, LatencyIncludesRuntimeOverheads) {
  HostConfig config;
  config.per_request = microseconds(250);
  Rig rig(config);
  const SimTime start = rig.sim.now();
  rig.send(workloads::kWebServerId, encode_web_request(0), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  // Must exceed the runtime dispatch + kernel stack floor.
  EXPECT_GT(rig.sim.now() - start, microseconds(250));
}

TEST(HostServer, KvLambdaBlocksAndResumes) {
  Rig rig;
  rig.cache->put(11, 1212);
  rig.send(workloads::kKvGetId, encode_kv_request(11), 2);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(rig.responses[0].payload[i]) << (8 * i);
  }
  EXPECT_EQ(v, 1212u);
  EXPECT_EQ(rig.host->busy_cores(), 0u);
}

TEST(HostServer, ImageTransformerMatchesReference) {
  Rig rig;
  const auto img = workloads::make_test_image(64, 48, 4);
  rig.send(workloads::kImageId,
           encode_image_request(img.width, img.height, img.rgba), 3);
  rig.sim.run();
  std::map<std::uint32_t, net::BufferView> parts;
  for (const auto& p : rig.responses) parts[p.lambda.frag_index] = p.payload;
  std::vector<std::uint8_t> gray;
  for (auto& [i, b] : parts) {
    (void)i;
    gray.insert(gray.end(), b.begin(), b.end());
  }
  EXPECT_EQ(gray, workloads::to_grayscale(img));
}

TEST(HostServer, ContextSwitchesCountedWhenWorkloadsAlternate) {
  HostConfig config;
  config.cores = 1;
  config.worker_threads = 1;
  Rig rig(config);
  for (int i = 0; i < 10; ++i) {
    rig.send(i % 2 == 0 ? workloads::kWebServerId : workloads::kKvSetId,
             i % 2 == 0 ? encode_web_request(0) : encode_kv_request(1, 2),
             static_cast<RequestId>(i + 1));
  }
  rig.sim.run();
  // Every request lands on a core that last ran the other workload.
  EXPECT_GE(rig.host->stats().context_switches, 10u);
}

TEST(HostServer, SameWorkloadAvoidsSwitches) {
  HostConfig config;
  config.cores = 1;
  config.worker_threads = 1;
  Rig rig(config);
  for (int i = 0; i < 10; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(0),
             static_cast<RequestId>(i + 1));
  }
  rig.sim.run();
  EXPECT_LE(rig.host->stats().context_switches, 1u);
}

TEST(HostServer, WorkerThreadLimitSerializes) {
  HostConfig fast;
  fast.worker_threads = 56;
  HostConfig slow;
  slow.worker_threads = 1;
  SimTime t_fast, t_slow;
  {
    Rig rig(fast);
    for (int i = 0; i < 20; ++i) {
      rig.send(workloads::kWebServerId, encode_web_request(0),
               static_cast<RequestId>(i + 1));
    }
    rig.sim.run();
    EXPECT_EQ(rig.responses.size(), 20u);
    t_fast = rig.sim.now();
  }
  {
    Rig rig(slow);
    for (int i = 0; i < 20; ++i) {
      rig.send(workloads::kWebServerId, encode_web_request(0),
               static_cast<RequestId>(i + 1));
    }
    rig.sim.run();
    EXPECT_EQ(rig.responses.size(), 20u);
    t_slow = rig.sim.now();
  }
  // With the GIL serializing execution, extra service threads only
  // overlap kernel/runtime work; the single-thread run is still strictly
  // slower because nothing overlaps at all.
  EXPECT_GT(t_slow, t_fast);
}

TEST(HostServer, BusyTimeAccumulatesForUtilization) {
  Rig rig;
  rig.send(workloads::kWebServerId, encode_web_request(0), 1);
  rig.sim.run();
  EXPECT_GT(rig.host->stats().busy_time, 0);
}

TEST(HostServer, AllRequestsCompleteUnderBurst) {
  Rig rig;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(i & 3),
             static_cast<RequestId>(i + 1));
  }
  rig.sim.run();
  EXPECT_EQ(rig.responses.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(rig.host->stats().requests_dropped, 0u);
}

}  // namespace
}  // namespace lnic::hostsim
