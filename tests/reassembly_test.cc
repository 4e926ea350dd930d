// Tests for fragment reassembly (paper §4.2.1 D3): the rules of the one
// reorder buffer, net::Reassembler, and the receivers built on it — the
// SmartNIC's RDMA staging, the host server and the host-memory RDMA
// target — each holding a message back until every fragment has arrived.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
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

TEST(Reassembler, DropsFragmentCountsAboveTheBound) {
  // A first fragment claiming 0xFFFFFFFF fragments used to make a
  // receiver size about 96 GiB of fragment records. A count above the
  // most fragments any sender makes is dropped with nothing stored.
  EXPECT_EQ(net::kMaxFragments, 23968u);
  Reassembler reassembler;
  auto added = Reassembler::Added::kFirst;
  for (const std::uint32_t count : {0xFFFFFFFFu, net::kMaxFragments + 1}) {
    EXPECT_FALSE(reassembler.add(fragment_of(1, 0, count, {1}), &added));
    EXPECT_EQ(added, Reassembler::Added::kDropped) << count;
    EXPECT_EQ(reassembler.partial(), 0u) << count;
  }
  // A count at the bound is a message a sender can make: it opens.
  EXPECT_FALSE(reassembler.add(fragment_of(1, 0, net::kMaxFragments, {1}),
                               &added));
  EXPECT_EQ(added, Reassembler::Added::kFirst);
  EXPECT_EQ(reassembler.partial(), 1u);
  reassembler.discard(/*src=*/1, /*request_id=*/1);
  EXPECT_EQ(reassembler.partial(), 0u);
}

// ------------------------------------------------- randomized reference

/// The reassembly rules as a plain reference: partial messages in a map
/// keyed by (source, request id), each holding its fragments' views, and
/// a complete body shared when its fragments are in-order slices of one
/// buffer, else copied, as coalesce() does. Also gives the copy_stats()
/// deltas the add should make.
class ReferenceReassembler {
 public:
  struct Outcome {
    Reassembler::Added added = Reassembler::Added::kDropped;
    std::optional<Packet> header;  // set when the message completes
    Bytes8 body;
    std::uint64_t bytes_shared = 0;
    std::uint64_t bytes_copied = 0;
  };

  Outcome add(const Packet& p) {
    Outcome out;
    const std::uint32_t count = p.lambda.frag_count;
    const std::uint32_t index = p.lambda.frag_index;
    if (index >= count || count > net::kMaxFragments) return out;
    const auto key = std::make_pair(p.src, p.lambda.request_id);
    auto it = open_.find(key);
    if (it == open_.end()) {
      out.added = Reassembler::Added::kFirst;
      Partial fresh{p, std::vector<net::BufferView>(count),
                    std::vector<bool>(count)};
      fresh.header.payload = {};
      if (count == 1) {
        out.header = fresh.header;
        out.body.assign(p.payload.begin(), p.payload.end());
        out.bytes_shared = out.body.size();
        return out;
      }
      it = open_.emplace(key, std::move(fresh)).first;
    } else if (count != it->second.frags.size() ||
               it->second.received[index]) {
      return out;
    } else {
      out.added = Reassembler::Added::kLater;
    }
    Partial& m = it->second;
    m.received[index] = true;
    m.frags[index] = p.payload;
    if (std::find(m.received.begin(), m.received.end(), false) !=
        m.received.end()) {
      return out;
    }
    out.header = m.header;
    const net::Buffer::Ptr& base = m.frags[0].buffer();
    bool shared = base != nullptr;
    std::size_t next = m.frags[0].offset();
    for (const net::BufferView& f : m.frags) {
      out.body.insert(out.body.end(), f.begin(), f.end());
      if (f.buffer() != base || f.offset() != next) shared = false;
      next = f.offset() + f.size();
    }
    (shared ? out.bytes_shared : out.bytes_copied) = out.body.size();
    open_.erase(it);
    return out;
  }

  void discard(NodeId src, RequestId id) { open_.erase({src, id}); }
  std::size_t partial() const { return open_.size(); }

 private:
  struct Partial {
    Packet header;
    std::vector<net::BufferView> frags;
    std::vector<bool> received;
  };
  std::map<std::pair<NodeId, RequestId>, Partial> open_;
};

Bytes8 random_bytes(Rng& rng, std::size_t size) {
  Bytes8 bytes(size);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

/// The fragments of one message from `src` under `id`, each maybe lost,
/// duplicated, or followed by a copy with a disagreeing or out-of-range
/// frag_count. Mostly slices of one buffer cut by net::fragment, else
/// hand-built fragments of 0 to 40 bytes, each its own buffer.
void append_message(Rng& rng, NodeId src, RequestId id,
                    std::vector<Packet>& out) {
  std::vector<Packet> frags;
  if (rng.next_bool(0.6)) {
    const std::size_t size = 1 + rng.next_below(6 * net::kMaxPayload);
    net::LambdaHeader header;
    header.workload_id = 7;
    header.request_id = id;
    net::fragment(src, 2, PacketKind::kRdmaWrite, header,
                  net::BufferView(random_bytes(rng, size)),
                  [&frags](Packet&& p) { frags.push_back(std::move(p)); });
  } else {
    const auto count = static_cast<std::uint32_t>(2 + rng.next_below(4));
    for (std::uint32_t i = 0; i < count; ++i) {
      frags.push_back(fragment_of(id, i, count,
                                  random_bytes(rng, rng.next_below(41))));
      frags.back().src = src;
    }
  }
  for (Packet& p : frags) {
    if (rng.next_bool(0.02)) continue;  // lost
    if (rng.next_bool(0.15)) out.push_back(p);
    if (rng.next_bool(0.05)) {
      Packet bad = p;
      bad.lambda.frag_count +=
          1 + static_cast<std::uint32_t>(rng.next_below(2));
      out.push_back(std::move(bad));
    }
    if (rng.next_bool(0.02)) {
      Packet bad = p;
      bad.lambda.frag_index = bad.lambda.frag_count;
      out.push_back(std::move(bad));
    }
    out.push_back(std::move(p));
  }
}

TEST(Reassembler, MatchesReferenceUnderShuffledDuplicatedTraffic) {
  // Three sources reuse request ids 1 to 3 every round; their fragments
  // arrive shuffled together, with duplicates, disagreeing counts, lost
  // fragments (partials that linger into later rounds) and discards.
  std::uint64_t shared_bodies = 0;
  std::uint64_t copied_bodies = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Reassembler reassembler;
    ReferenceReassembler reference;
    for (int round = 0; round < 20; ++round) {
      std::vector<Packet> packets;
      for (NodeId src = 1; src <= 3; ++src) {
        for (RequestId id = 1; id <= 3; ++id) {
          append_message(rng, src, id, packets);
        }
      }
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.next_below(i)]);
      }
      for (const Packet& p : packets) {
        if (rng.next_bool(0.03)) {
          const auto src = static_cast<NodeId>(1 + rng.next_below(3));
          const RequestId id = 1 + rng.next_below(3);
          reassembler.discard(src, id);
          reference.discard(src, id);
        }
        const ReferenceReassembler::Outcome want = reference.add(p);
        auto added = Reassembler::Added::kDropped;
        const CopyStats before = copy_stats();
        const auto message = reassembler.add(p, &added);
        const CopyStats after = copy_stats();
        EXPECT_EQ(added, want.added);
        ASSERT_EQ(message.has_value(), want.header.has_value());
        if (message) {
          EXPECT_EQ(message->body, want.body);
          EXPECT_TRUE(message->header.payload.empty());
          EXPECT_EQ(message->header.src, want.header->src);
          EXPECT_EQ(message->header.lambda.request_id,
                    want.header->lambda.request_id);
          EXPECT_EQ(message->header.lambda.frag_index,
                    want.header->lambda.frag_index);
          EXPECT_EQ(message->header.lambda.frag_count,
                    want.header->lambda.frag_count);
          ++(want.bytes_copied > 0 ? copied_bodies : shared_bodies);
        }
        EXPECT_EQ(after.bytes_shared - before.bytes_shared, want.bytes_shared);
        EXPECT_EQ(after.bytes_copied - before.bytes_copied, want.bytes_copied);
        ASSERT_EQ(reassembler.partial(), reference.partial());
      }
    }
  }
  EXPECT_GT(shared_bodies, 100u);
  EXPECT_GT(copied_bodies, 100u);
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
