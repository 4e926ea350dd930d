// Tests for fragment reassembly (paper §4.2.1 D3): the rules of the one
// reorder buffer, net::Reassembler, and the receivers built on it — the
// SmartNIC's RDMA staging, the host server and the host-memory RDMA
// target — each holding a message back until every fragment has arrived.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compiler/pipeline.h"
#include "hostsim/host.h"
#include "net/network.h"
#include "net/packet.h"
#include "nicsim/nic.h"
#include "proto/rdma.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

namespace lnic {
namespace {

using net::Packet;
using net::PacketKind;
using net::Reassembler;
using Bytes8 = std::vector<std::uint8_t>;

Packet fragment_of(RequestId id, std::uint32_t index, std::uint32_t count,
                   net::BufferView payload) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.kind = PacketKind::kRdmaWrite;
  p.lambda.workload_id = 7;
  p.lambda.request_id = id;
  p.lambda.frag_index = index;
  p.lambda.frag_count = count;
  p.payload = std::move(payload);
  return p;
}

TEST(Reassembler, SingleFragmentCompletesWithoutState) {
  Reassembler reassembler;
  auto added = Reassembler::Added::kDropped;
  auto message = reassembler.add(fragment_of(1, 0, 1, {4, 5}), &added);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(added, Reassembler::Added::kFirst);
  EXPECT_EQ(message->body, (Bytes8{4, 5}));
  EXPECT_TRUE(message->header.payload.empty());
  EXPECT_EQ(message->header.lambda.workload_id, 7u);
  EXPECT_EQ(reassembler.partial(), 0u);
}

TEST(Reassembler, OutOfOrderFragmentsCompleteInIndexOrder) {
  Reassembler reassembler;
  EXPECT_FALSE(reassembler.add(fragment_of(1, 2, 3, {3})));
  EXPECT_FALSE(reassembler.add(fragment_of(1, 0, 3, {1})));
  EXPECT_EQ(reassembler.partial(), 1u);
  auto message = reassembler.add(fragment_of(1, 1, 3, {2}));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->body, (Bytes8{1, 2, 3}));
  // The header is the first fragment to arrive.
  EXPECT_EQ(message->header.lambda.frag_index, 2u);
  EXPECT_EQ(reassembler.partial(), 0u);
}

TEST(Reassembler, DropsMalformedInconsistentAndDuplicateFragments) {
  Reassembler reassembler;
  auto added = Reassembler::Added::kFirst;
  const auto add = [&](std::uint32_t index, std::uint32_t count,
                       net::BufferView payload) {
    return reassembler.add(fragment_of(1, index, count, std::move(payload)),
                           &added);
  };
  EXPECT_FALSE(add(0, 0, {}));  // zero frag_count
  EXPECT_EQ(added, Reassembler::Added::kDropped);
  EXPECT_FALSE(add(2, 2, {}));  // index out of range
  EXPECT_EQ(added, Reassembler::Added::kDropped);
  EXPECT_EQ(reassembler.partial(), 0u);
  EXPECT_FALSE(add(0, 2, {}));  // an empty fragment 0 opens the message
  EXPECT_EQ(added, Reassembler::Added::kFirst);
  EXPECT_FALSE(add(0, 2, {}));  // its duplicate must not count
  EXPECT_EQ(added, Reassembler::Added::kDropped);
  EXPECT_FALSE(add(1, 3, {9}));  // frag_count disagrees with the first
  EXPECT_EQ(added, Reassembler::Added::kDropped);
  EXPECT_FALSE(add(0, 1, {9}));  // so does a lone packet under the key
  EXPECT_EQ(added, Reassembler::Added::kDropped);
  auto message = add(1, 2, {6});
  EXPECT_EQ(added, Reassembler::Added::kLater);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->body, (Bytes8{6}));
}

TEST(Reassembler, DiscardForgetsPartialMessage) {
  Reassembler reassembler;
  EXPECT_FALSE(reassembler.add(fragment_of(1, 0, 2, {1})));
  reassembler.discard(/*src=*/1, /*request_id=*/1);
  EXPECT_EQ(reassembler.partial(), 0u);
  // The other fragment now opens a fresh message instead of completing.
  EXPECT_FALSE(reassembler.add(fragment_of(1, 1, 2, {2})));
  EXPECT_EQ(reassembler.partial(), 1u);
}

// ------------------------------------------------------------ receivers

enum class Receiver { kNic, kHost, kHostMemory };

std::string receiver_name(const ::testing::TestParamInfo<Receiver>& info) {
  switch (info.param) {
    case Receiver::kNic: return "Nic";
    case Receiver::kHost: return "Host";
    case Receiver::kHostMemory: return "HostMemory";
  }
  return "?";
}

/// One receiver on a fabric plus a raw sender that hand-builds fragments
/// and records which request ids got an answer.
struct ReceiverRig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<nicsim::SmartNic> nic;
  std::unique_ptr<hostsim::HostServer> host;
  std::unique_ptr<proto::HostMemoryNode> memory;
  NodeId receiver = kInvalidNode;
  NodeId sender = kInvalidNode;
  PacketKind kind = PacketKind::kRdmaWrite;
  WorkloadId workload = workloads::kWebServerId;
  std::set<RequestId> answered;

  explicit ReceiverRig(Receiver which) {
    auto bundle = workloads::make_standard_workloads();
    switch (which) {
      case Receiver::kNic: {
        nic = std::make_unique<nicsim::SmartNic>(sim, network);
        auto firmware =
            compiler::compile(bundle.spec, std::move(bundle.lambdas));
        EXPECT_TRUE(firmware.ok());
        auto image = std::make_shared<const compiler::CompileOutput>(
            std::move(firmware).value());
        EXPECT_TRUE(nic->deploy(std::move(image)).ok());
        sim.run_until(seconds(20));  // firmware load window passes
        receiver = nic->node();
        break;
      }
      case Receiver::kHost: {
        host = std::make_unique<hostsim::HostServer>(sim, network,
                                                     hostsim::HostConfig{});
        auto compiled =
            compiler::compile(bundle.spec, std::move(bundle.lambdas));
        EXPECT_TRUE(compiled.ok());
        host->deploy(std::make_shared<const microc::Program>(
            std::move(compiled).value().program));
        receiver = host->node();
        kind = PacketKind::kRequest;
        break;
      }
      case Receiver::kHostMemory:
        memory = std::make_unique<proto::HostMemoryNode>(sim, network);
        receiver = memory->node();
        workload = proto::kRdmaOpWrite;
        break;
    }
    sender = network.attach(
        [this](const Packet& p) { answered.insert(p.lambda.request_id); });
  }

  void send(RequestId id, std::uint32_t index, std::uint32_t count,
            Bytes8 payload) {
    Packet p;
    p.src = sender;
    p.dst = receiver;
    p.kind = kind;
    p.lambda.workload_id = workload;
    p.lambda.request_id = id;
    p.lambda.frag_index = index;
    p.lambda.frag_count = count;
    p.payload = std::move(payload);
    network.send(std::move(p));
    sim.run_until(sim.now() + milliseconds(1));
  }
};

class ReceiverReassemblyTest : public ::testing::TestWithParam<Receiver> {};

TEST_P(ReceiverReassemblyTest, CompletesOnlyWhenEveryFragmentArrived) {
  ReceiverRig rig(GetParam());
  const Bytes8 body = workloads::encode_web_request(1);
  const Bytes8 head(body.begin(), body.begin() + 4);
  const Bytes8 tail(body.begin() + 4, body.end());

  // An empty fragment 0 of 2, duplicated: receipt must not be inferred
  // from a non-empty payload.
  rig.send(1, 0, 2, {});
  rig.send(1, 0, 2, {});
  EXPECT_EQ(rig.answered.count(1), 0u) << "completed without fragment 1";
  rig.send(1, 1, 2, body);
  EXPECT_EQ(rig.answered.count(1), 1u);

  // A fragment whose frag_count disagrees with the first one's.
  rig.send(2, 0, 2, head);
  rig.send(2, 1, 3, tail);
  EXPECT_EQ(rig.answered.count(2), 0u) << "completed on a mismatched count";
  rig.send(2, 1, 2, tail);
  EXPECT_EQ(rig.answered.count(2), 1u);
}

INSTANTIATE_TEST_SUITE_P(D3, ReceiverReassemblyTest,
                         ::testing::Values(Receiver::kNic, Receiver::kHost,
                                           Receiver::kHostMemory),
                         receiver_name);

}  // namespace
}  // namespace lnic
