// Tests for the weakly-consistent RPC client: completion, latency
// accounting, retransmission under loss, failure after max retries, and
// multi-fragment response reassembly, and the ring of pending requests.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "net/network.h"
#include "net/trace.h"
#include "proto/rpc.h"
#include "sim/simulator.h"

namespace lnic::proto {
namespace {

using net::Packet;
using net::PacketKind;

// A trivial echo server: replies with the request payload reversed.
struct EchoServer {
  net::Network& network;
  NodeId node;
  std::uint64_t served = 0;

  explicit EchoServer(net::Network& net) : network(net) {
    node = network.attach([this](const Packet& p) {
      if (p.kind != PacketKind::kRequest && p.kind != PacketKind::kRdmaWrite) {
        return;
      }
      ++served;
      std::vector<std::uint8_t> reply(p.payload.rbegin(), p.payload.rend());
      net::fragment(node, p.src, PacketKind::kResponse, p.lambda, reply,
                    [&](Packet f) { network.send(std::move(f)); });
    });
  }
};

TEST(RpcClient, CompletesAndMeasuresLatency) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoServer server(network);
  RpcClient client(sim, network);
  std::optional<RpcResponse> got;
  client.call(server.node, 1, {1, 2, 3}, [&](Result<RpcResponse> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{3, 2, 1}));
  EXPECT_GT(got->latency, 0);
  EXPECT_EQ(got->retries, 0u);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(RpcClient, ThousandsOfConcurrentCallsAnsweredOnceEachAcrossRingGrowth) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoServer server(network);
  RpcClient client(sim, network);
  constexpr int kCalls = 5000;
  std::map<int, int> answers;  // call index -> callbacks
  for (int i = 0; i < kCalls; ++i) {
    const std::vector<std::uint8_t> body = {static_cast<std::uint8_t>(i),
                                            static_cast<std::uint8_t>(i >> 8)};
    client.call(server.node, 1, body, [&answers, i](Result<RpcResponse> r) {
      ASSERT_TRUE(r.ok());
      // The echo reverses the body: each callback gets its own answer.
      EXPECT_EQ(r.value().payload,
                (std::vector<std::uint8_t>{static_cast<std::uint8_t>(i >> 8),
                                           static_cast<std::uint8_t>(i)}));
      ++answers[i];
    });
  }
  EXPECT_EQ(client.inflight(), static_cast<std::uint64_t>(kCalls));
  EXPECT_GE(client.pending_slots(), static_cast<std::size_t>(kCalls));
  sim.run();
  ASSERT_EQ(answers.size(), static_cast<std::size_t>(kCalls));
  for (const auto& [i, count] : answers) EXPECT_EQ(count, 1) << "call " << i;
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(server.served, static_cast<std::uint64_t>(kCalls));
}

TEST(RpcClient, LateResponseForAReusedSlotIsIgnored) {
  // Request 1 times out; its late response arrives while request 17,
  // which reuses its slot in the 16-slot ring, is in flight. The
  // response must neither complete request 17 nor fire request 1's
  // callback again.
  sim::Simulator sim;
  net::Network network(sim);
  const NodeId server = network.attach([](const Packet&) {});
  std::optional<Packet> first;
  network.set_handler(server, [&](const Packet& p) {
    if (p.lambda.request_id == 1) first = p;  // answered late, below
  });
  RpcConfig config;
  config.retransmit_timeout = microseconds(500);
  config.max_retries = 0;
  RpcClient client(sim, network, config);
  std::map<int, std::vector<bool>> results;  // call -> ok per callback
  auto call = [&](int i) {
    client.call(server, 1, {static_cast<std::uint8_t>(i)},
                [&results, i](Result<RpcResponse> r) {
                  results[i].push_back(r.ok());
                });
  };
  call(1);
  sim.run_until(microseconds(600));  // request 1 has timed out
  ASSERT_EQ(results[1], std::vector<bool>{false});
  for (int i = 2; i <= 17; ++i) call(i);
  ASSERT_EQ(client.pending_slots(), 16u);
  ASSERT_TRUE(first.has_value());
  Packet late;
  late.src = server;
  late.dst = first->src;
  late.kind = PacketKind::kResponse;
  late.lambda = first->lambda;
  late.payload = {42};
  network.send(late);
  sim.run();
  EXPECT_EQ(results.size(), 17u);
  for (const auto& [i, oks] : results) {
    EXPECT_EQ(oks, std::vector<bool>{false}) << "call " << i;
  }
  EXPECT_EQ(client.inflight(), 0u);
}

TEST(RpcClient, RetransmitsUnderLossAndSucceeds) {
  sim::Simulator sim;
  net::Network network(sim, net::FaultConfig{.drop_probability = 0.4},
                       /*seed=*/11);
  EchoServer server(network);
  RpcConfig config;
  config.retransmit_timeout = milliseconds(5);
  config.max_retries = 50;
  RpcClient client(sim, network, config);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    client.call(server.node, 1, {static_cast<std::uint8_t>(i)},
                [&](Result<RpcResponse> r) {
                  ASSERT_TRUE(r.ok());
                  ++completed;
                });
  }
  sim.run();
  EXPECT_EQ(completed, 50);
  EXPECT_GT(client.retransmissions(), 0u);
  EXPECT_EQ(client.failures(), 0u);
}

TEST(RpcClient, FailsAfterMaxRetries) {
  sim::Simulator sim;
  net::Network network(sim, net::FaultConfig{.drop_probability = 1.0});
  net::PacketTracer sends;  // records every send, drops included
  network.set_tracer(&sends);
  EchoServer server(network);
  RpcConfig config;
  config.retransmit_timeout = milliseconds(1);
  config.max_retries = 3;
  RpcClient client(sim, network, config);
  const SimTime called_at = sim.now();
  SimTime failed_at = -1;
  client.call(server.node, 1, {9}, [&](Result<RpcResponse> r) {
    EXPECT_FALSE(r.ok());
    failed_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(client.retransmissions(), 3u);
  EXPECT_EQ(client.failures(), 1u);
  // One fixed timer, no backoff: transmission k leaves k timeouts after
  // the call, and the call fails one timeout after the last of them.
  ASSERT_EQ(sends.size(), config.max_retries + 1);
  for (std::size_t k = 0; k < sends.size(); ++k) {
    EXPECT_TRUE(sends.records()[k].dropped);
    EXPECT_EQ(sends.records()[k].time,
              called_at + static_cast<SimDuration>(k) *
                              config.retransmit_timeout)
        << "transmission " << k;
  }
  EXPECT_EQ(failed_at, called_at + (config.max_retries + 1) *
                                       config.retransmit_timeout);
}

TEST(RpcClient, LargePayloadGoesAsRdmaFragments) {
  sim::Simulator sim;
  net::Network network(sim);
  int rdma_frags = 0;
  net::Network* net_ptr = &network;
  NodeId server = network.attach(nullptr);
  network.set_handler(server, [&](const Packet& p) {
    if (p.kind == PacketKind::kRdmaWrite) ++rdma_frags;
    if (p.kind == PacketKind::kRdmaWrite &&
        p.lambda.frag_index + 1 == p.lambda.frag_count) {
      Packet reply;
      reply.src = server;
      reply.dst = p.src;
      reply.kind = PacketKind::kResponse;
      reply.lambda = p.lambda;
      reply.lambda.frag_index = 0;
      reply.lambda.frag_count = 1;
      net_ptr->send(reply);
    }
  });
  RpcClient client(sim, network);
  std::vector<std::uint8_t> big(5000, 7);
  bool done = false;
  client.call(server, 4, big, [&](Result<RpcResponse> r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rdma_frags, 4);  // 5000 / 1400 -> 4 fragments
}

TEST(RpcClient, ReassemblesMultiFragmentResponse) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Network* net_ptr = &network;
  NodeId server = network.attach(nullptr);
  std::vector<std::uint8_t> big_reply(4000);
  for (std::size_t i = 0; i < big_reply.size(); ++i) {
    big_reply[i] = static_cast<std::uint8_t>(i * 13);
  }
  network.set_handler(server, [&, server](const Packet& p) {
    if (p.kind != PacketKind::kRequest) return;
    net::fragment(server, p.src, PacketKind::kResponse, p.lambda, big_reply,
                  [&](Packet f) { net_ptr->send(std::move(f)); });
  });
  RpcClient client(sim, network);
  std::optional<RpcResponse> got;
  client.call(server, 2, {1}, [&](Result<RpcResponse> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, big_reply);
}

TEST(RpcClient, DuplicateResponsesIgnored) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Network* net_ptr = &network;
  NodeId server = network.attach(nullptr);
  network.set_handler(server, [&, server](const Packet& p) {
    if (p.kind != PacketKind::kRequest) return;
    for (int i = 0; i < 3; ++i) {  // duplicate replies
      Packet reply;
      reply.src = server;
      reply.dst = p.src;
      reply.kind = PacketKind::kResponse;
      reply.lambda = p.lambda;
      reply.payload = {42};
      net_ptr->send(reply);
    }
  });
  RpcClient client(sim, network);
  int callbacks = 0;
  client.call(server, 1, {1}, [&](Result<RpcResponse>) { ++callbacks; });
  sim.run();
  EXPECT_EQ(callbacks, 1);
}

// Property: under any loss rate < 1 with generous retries, every request
// eventually completes (the DESIGN.md transport invariant).
class RpcLossSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(RpcLossSweepTest, AllRequestsEventuallyComplete) {
  sim::Simulator sim;
  net::Network network(sim, net::FaultConfig{.drop_probability = GetParam()},
                       /*seed=*/23);
  EchoServer server(network);
  RpcConfig config;
  config.retransmit_timeout = milliseconds(2);
  config.max_retries = 200;
  RpcClient client(sim, network, config);
  int completed = 0;
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    client.call(server.node, 1, {static_cast<std::uint8_t>(i)},
                [&](Result<RpcResponse> r) {
                  ASSERT_TRUE(r.ok());
                  ++completed;
                });
  }
  sim.run();
  EXPECT_EQ(completed, n);
}

INSTANTIATE_TEST_SUITE_P(LossRates, RpcLossSweepTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2));

TEST(RpcClient, DuplicateEmptyFragmentCannotCompleteResponse) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Network* net_ptr = &network;
  // A two-fragment response whose first fragment is zero-length and
  // duplicated. The old empty-as-missing marker double-counted this and
  // completed the response with fragment 1 missing.
  NodeId server = network.attach(nullptr);
  network.set_handler(server, [&, server](const net::Packet& p) {
    if (p.kind != PacketKind::kRequest) return;
    net::Packet frag0;
    frag0.src = server;
    frag0.dst = p.src;
    frag0.kind = PacketKind::kResponse;
    frag0.lambda = p.lambda;
    frag0.lambda.frag_index = 0;
    frag0.lambda.frag_count = 2;
    net_ptr->send(frag0);
    net_ptr->send(frag0);  // duplicate of the empty fragment
    net::Packet frag1 = frag0;
    frag1.lambda.frag_index = 1;
    frag1.payload = {5, 6};
    sim.schedule(microseconds(100), [net_ptr, frag1] { net_ptr->send(frag1); });
  });
  RpcClient client(sim, network);
  std::optional<RpcResponse> got;
  client.call(server, 1, {1}, [&](Result<RpcResponse> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  // Run past the duplicates but before fragment 1: must not complete.
  sim.run_until(microseconds(50));
  EXPECT_FALSE(got.has_value());
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{5, 6}));
}

TEST(RpcClient, InconsistentFragCountIgnored) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Network* net_ptr = &network;
  NodeId server = network.attach(nullptr);
  network.set_handler(server, [&, server](const net::Packet& p) {
    if (p.kind != PacketKind::kRequest) return;
    net::Packet frag;
    frag.src = server;
    frag.dst = p.src;
    frag.kind = PacketKind::kResponse;
    frag.lambda = p.lambda;
    frag.lambda.frag_index = 0;
    frag.lambda.frag_count = 2;
    frag.payload = {1};
    net_ptr->send(frag);
    // Claims to be the lone fragment of a 1-fragment response: conflicts
    // with the count announced above and must be dropped, as must an
    // out-of-range index.
    net::Packet liar = frag;
    liar.lambda.frag_index = 0;
    liar.lambda.frag_count = 1;
    net_ptr->send(liar);
    net::Packet oob = frag;
    oob.lambda.frag_index = 7;
    oob.payload = {9};
    net_ptr->send(oob);
    net::Packet frag1 = frag;
    frag1.lambda.frag_index = 1;
    frag1.payload = {2};
    net_ptr->send(frag1);
  });
  RpcClient client(sim, network);
  std::optional<RpcResponse> got;
  client.call(server, 1, {1}, [&](Result<RpcResponse> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{1, 2}));
}

TEST(RpcClient, RetransmissionDiscardsPartialResponse) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Network* net_ptr = &network;
  // The first attempt's response loses fragment 1; the retransmission
  // is answered whole, with different bytes. A kept fragment 0 from the
  // first attempt would splice the two answers together.
  int attempts = 0;
  NodeId server = network.attach(nullptr);
  network.set_handler(server, [&, server](const net::Packet& p) {
    if (p.kind != PacketKind::kRequest) return;
    const std::uint8_t tag = static_cast<std::uint8_t>(++attempts);
    net::Packet frag;
    frag.src = server;
    frag.dst = p.src;
    frag.kind = PacketKind::kResponse;
    frag.lambda = p.lambda;
    frag.lambda.frag_count = 2;
    frag.lambda.frag_index = 0;
    frag.payload = {tag};
    net_ptr->send(frag);
    if (tag == 1) return;  // the first answer loses fragment 1
    frag.lambda.frag_index = 1;
    net_ptr->send(frag);
  });
  RpcConfig config;
  config.retransmit_timeout = milliseconds(1);
  RpcClient client(sim, network, config);
  std::optional<RpcResponse> got;
  client.call(server, 1, {1}, [&](Result<RpcResponse> r) {
    ASSERT_TRUE(r.ok());
    got = std::move(r).value();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->retries, 1u);
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{2, 2}));
}

// Property: the fixed timer keeps the completion guarantee under loss
// and reordering. Reordering delays some responses past the timer, so
// duplicate answers race retransmissions; each call still completes
// exactly once.
class ReorderingLossSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ReorderingLossSweepTest, EveryCallCompletesOnce) {
  sim::Simulator sim;
  net::Network network(sim,
                       net::FaultConfig{.drop_probability = GetParam(),
                                        .reorder_probability = 0.1,
                                        .reorder_max_extra_delay =
                                            microseconds(200)},
                       /*seed=*/31);
  EchoServer server(network);
  RpcConfig config;
  config.retransmit_timeout = microseconds(100);
  config.max_retries = 200;
  RpcClient client(sim, network, config);
  const int n = 30;
  std::vector<int> completions(n, 0);
  for (int i = 0; i < n; ++i) {
    client.call(server.node, 1, {static_cast<std::uint8_t>(i)},
                [&completions, i](Result<RpcResponse> r) {
                  ASSERT_TRUE(r.ok());
                  EXPECT_EQ(r.value().payload,
                            (std::vector<std::uint8_t>{
                                static_cast<std::uint8_t>(i)}));
                  ++completions[i];
                });
  }
  sim.run();
  for (int i = 0; i < n; ++i) EXPECT_EQ(completions[i], 1) << "call " << i;
  EXPECT_EQ(client.failures(), 0u);
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_GT(client.retransmissions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, ReorderingLossSweepTest,
                         ::testing::Values(0.05, 0.1, 0.2));

}  // namespace
}  // namespace lnic::proto
