// Tests for the simulated fabric: delivery latency model, queueing,
// fragmentation, and fault injection.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "net/trace.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace lnic::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, Bytes payload_size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = std::vector<std::uint8_t>(payload_size, 0xAB);
  return p;
}

TEST(Packet, WireSizeIncludesFraming) {
  Packet p = make_packet(0, 1, 100);
  EXPECT_EQ(p.wire_size(), kFrameOverhead + kLambdaHeaderSize + 100);
}

TEST(Packet, PayloadStringRoundTrip) {
  const std::string text = "hello lambda";
  EXPECT_EQ(payload_to_string(make_payload(text)), text);
}

/// fragment()'s packets, collected in order.
std::vector<Packet> fragments_of(PacketKind kind, const LambdaHeader& hdr,
                                 const BufferView& payload) {
  std::vector<Packet> frags;
  fragment(0, 1, kind, hdr, payload,
           [&frags](Packet p) { frags.push_back(std::move(p)); });
  return frags;
}

TEST(Fragment, SinglePacketWhenSmall) {
  LambdaHeader hdr{.workload_id = 3, .request_id = 9};
  auto frags = fragments_of(PacketKind::kRequest, hdr,
                            std::vector<std::uint8_t>(100, 1));
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].lambda.frag_count, 1u);
  EXPECT_EQ(frags[0].lambda.workload_id, 3u);
}

TEST(Fragment, SplitsAndPreservesBytes) {
  std::vector<std::uint8_t> payload(3 * kMaxPayload + 17);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  LambdaHeader hdr{.workload_id = 1, .request_id = 2};
  auto frags = fragments_of(PacketKind::kRdmaWrite, hdr, payload);
  ASSERT_EQ(frags.size(), 4u);
  std::vector<std::uint8_t> reassembled;
  for (const auto& f : frags) {
    EXPECT_EQ(f.lambda.frag_count, 4u);
    reassembled.insert(reassembled.end(), f.payload.begin(), f.payload.end());
  }
  EXPECT_EQ(reassembled, payload);
}

TEST(Fragment, EmptyPayloadStillProducesOnePacket) {
  auto frags = fragments_of(PacketKind::kRequest, {}, {});
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].payload.empty());
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
};

TEST_F(NetworkTest, DeliversToHandlerWithLatency) {
  Network network(sim);
  std::vector<SimTime> arrivals;
  const NodeId a = network.attach(nullptr);
  const NodeId b =
      network.attach([&](const Packet&) { arrivals.push_back(sim.now()); });
  network.send(make_packet(a, b, 64));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // ser(130 B) at 10 G = 104 ns, twice; + 2 * 500 prop + 800 switch.
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 104 + 500 + 800 + 104 + 500, 3);
}

TEST_F(NetworkTest, BackToBackPacketsQueueOnUplink) {
  Network network(sim);
  std::vector<SimTime> arrivals;
  const NodeId a = network.attach(nullptr);
  const NodeId b =
      network.attach([&](const Packet&) { arrivals.push_back(sim.now()); });
  network.send(make_packet(a, b, 1400));
  network.send(make_packet(a, b, 1400));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second packet waits a full serialization behind the first.
  const double ser = (kFrameOverhead + kLambdaHeaderSize + 1400) * 8.0 / 10.0;
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), ser, 3);
}

TEST_F(NetworkTest, DropsAreCountedAndNotDelivered) {
  Network network(sim, FaultConfig{.drop_probability = 1.0});
  int delivered = 0;
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 10; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.packets_dropped(), 10u);
  EXPECT_EQ(network.packets_sent(), 10u);
}

TEST_F(NetworkTest, PartialLossDeliversTheRest) {
  Network network(sim, FaultConfig{.drop_probability = 0.3}, /*seed=*/42);
  int delivered = 0;
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([&](const Packet&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(network.packets_dropped() + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.05);
}

TEST_F(NetworkTest, ReorderInjectionCanInvertArrivalOrder) {
  Network network(
      sim,
      FaultConfig{.reorder_probability = 0.5,
                  .reorder_max_extra_delay = microseconds(100)},
      /*seed=*/7);
  std::vector<int> order;
  const NodeId a = network.attach(nullptr);
  NodeId b = network.attach(nullptr);
  network.set_handler(b, [&](const Packet& p) {
    order.push_back(static_cast<int>(p.lambda.frag_index));
  });
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(a, b, 64);
    p.lambda.frag_index = static_cast<std::uint32_t>(i);
    network.send(p);
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST_F(NetworkTest, TracerRecordsSendsAndDrops) {
  Network network(sim, FaultConfig{.drop_probability = 0.5}, /*seed=*/5);
  PacketTracer tracer;
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 100; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(tracer.size(), 100u);
  std::uint64_t dropped = 0;
  for (const auto& r : tracer.records()) {
    EXPECT_EQ(r.src, a);
    EXPECT_EQ(r.dst, b);
    if (r.dropped) ++dropped;
  }
  EXPECT_EQ(dropped, network.packets_dropped());
}

TEST_F(NetworkTest, TracerCapacityBounded) {
  Network network(sim);
  PacketTracer tracer;
  tracer.set_capacity(100);
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 500; ++i) network.send(make_packet(a, b, 8));
  sim.run();
  EXPECT_LE(tracer.size(), 100u);
}

TEST_F(NetworkTest, TracerEvictionCountedAndReportedInDump) {
  Network network(sim);
  PacketTracer tracer;
  tracer.set_capacity(10);
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 25; ++i) network.send(make_packet(a, b, 8));
  sim.run();
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.evicted(), 15u);

  // Shrinking an already-full ring evicts immediately.
  tracer.set_capacity(4);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.evicted(), 21u);
  tracer.clear();
  EXPECT_EQ(tracer.evicted(), 0u);
}

TEST_F(NetworkTest, ByteAccountingMatchesWireSizes) {
  Network network(sim);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  Packet p = make_packet(a, b, 500);
  network.send(p);
  sim.run();
  EXPECT_EQ(network.bytes_sent(), p.wire_size());
}

}  // namespace
}  // namespace lnic::net
