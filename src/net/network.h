// Star-topology fabric: every node hangs off one output-queued switch via
// a full-duplex link, mirroring the paper's testbed (five servers on an
// Arista 10 G switch, §6.1.2).
//
// Delivery latency of a packet =
//   serialization at the sender's uplink (queued behind earlier packets)
// + link propagation
// + switch forwarding latency
// + serialization at the receiver's downlink (also queued)
// + link propagation.
//
// A FaultInjector can drop or delay (reorder) packets, used by transport
// and Raft property tests.
//
// Sharded mode: constructed over a ShardedSimulator, the network routes
// each send to the destination node's shard. The sender's shard computes
// uplink serialization (it owns the source port), then posts a remote
// event at the packet's switch-arrival time; the destination shard
// applies downlink queueing and delivery (it owns the destination port).
// The minimum cross-shard latency — link propagation + switch forwarding
// — is registered as the simulator's lookahead, making the physical link
// delay the conservative-sync contract. With one shard the classic
// synchronous path runs unchanged, byte-for-byte.
//
// Locality: set_local_only() lets topology-aware callers declare nodes
// that never send off-shard. The sharded constructor registers one EOT
// source per shard that turns those declarations into an idle outbound
// frontier, so such shards stop capping the engine's window length (see
// sim/sharded.h). Without declarations every window is one lookahead.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"
#include "net/trace.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace lnic::net {

using PacketHandler = std::function<void(const Packet&)>;

struct LinkConfig {
  double bandwidth_bps = 10e9;           // 10 Gbps testbed links
  SimDuration propagation = 500;         // 0.5 us per hop
  SimDuration switch_latency = 800;      // store-and-forward + lookup
};

struct FaultConfig {
  double drop_probability = 0.0;
  double reorder_probability = 0.0;
  SimDuration reorder_max_extra_delay = 0;  // extra delay when reordered
};

class Network {
 public:
  Network(sim::Simulator& sim, LinkConfig link = {}, FaultConfig faults = {},
          std::uint64_t seed = 1);

  /// Sharded fabric: nodes attach to the shard selected by
  /// set_attach_shard() and sends route to the destination's shard.
  /// Registers propagation + switch latency as the simulator's lookahead
  /// and one EOT source per shard (see set_local_only). The simulator
  /// must outlive the network.
  Network(sim::ShardedSimulator& sharded, LinkConfig link = {},
          FaultConfig faults = {}, std::uint64_t seed = 1);
  /// Unregisters the EOT sources: they capture this network.
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Selects the shard that subsequently attached nodes live on (sharded
  /// mode only; ignored otherwise). A node's handler runs on its shard's
  /// thread, and all of its simulator state must live there too.
  void set_attach_shard(unsigned shard);

  /// Registers a node; the returned NodeId addresses it in Packet::dst.
  /// `owner` (optional) is the simulator the node schedules on; in
  /// sharded mode it must be the current attach shard's engine — passing
  /// it lets the fabric catch node→shard affinity bugs at attach time.
  NodeId attach(PacketHandler handler,
                const sim::Simulator* owner = nullptr);

  /// Replaces the handler of an existing node (e.g. after worker restart).
  /// In sharded mode this must run on the node's own shard (or between
  /// runs): the handler is read by that shard's thread.
  void set_handler(NodeId node, PacketHandler handler);

  /// Declares that `node` never sends to a node on another shard (e.g. a
  /// cache that only its co-sharded worker talks to, or a client whose
  /// one peer is co-sharded). Default false — every node is assumed
  /// remote-capable, which is always sound. A shard's EOT report is +inf
  /// (an idle outbound frontier: it never caps a window) only when it has
  /// at least one node and every one is local-only; otherwise it is the
  /// shard's next_event_time(), the earliest it could send. The
  /// declaration is a hard promise: a local-only node sending cross-shard
  /// aborts, so a misdeclaration can never silently corrupt a replay.
  /// Call during setup (before runs).
  void set_local_only(NodeId node, bool local_only);
  bool local_only(NodeId node) const { return ports_[node].local_only; }

  /// Queues `packet` for delivery. src/dst must be attached nodes.
  void send(Packet packet);

  /// The shard a node was attached on (0 in unsharded mode).
  unsigned shard_of(NodeId node) const {
    return sharded_ != nullptr ? ports_[node].shard : 0;
  }

  void set_faults(FaultConfig faults) { faults_ = faults; }

  /// Attaches a tracer recording every send (nullptr detaches). The
  /// tracer must outlive the network or be detached first.
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  std::uint64_t packets_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  SimDuration serialization(Bytes size) const;

  bool multi_shard() const {
    return sharded_ != nullptr && sharded_->shards() > 1;
  }

  /// Classic synchronous path: both ports reserved at send time, one
  /// delivery event on `sim`. Used unsharded and for same-shard traffic.
  void send_local(Packet packet, sim::Simulator& sim, Rng& rng);
  /// Cross-shard path: uplink here, downlink + delivery posted to the
  /// destination shard at switch-arrival time.
  void send_cross(Packet packet, unsigned src_shard, unsigned dst_shard);

  void trace(const Packet& packet, SimTime at, bool dropped);

  sim::Simulator& sim_;                      // shard 0 in sharded mode
  sim::ShardedSimulator* sharded_ = nullptr;
  unsigned attach_shard_ = 0;
  LinkConfig link_;
  FaultConfig faults_;
  Rng rng_;                    // fault draws, unsharded path
  std::vector<Rng> shard_rngs_;  // fault draws per source shard (sharded)
  PacketTracer* tracer_ = nullptr;
  std::mutex trace_mu_;        // serializes tracer records across shards

  struct Port {
    PacketHandler handler;
    SimTime uplink_free_at = 0;    // written only by the node's shard
    SimTime downlink_free_at = 0;  // written only by the node's shard
    unsigned shard = 0;
    bool local_only = false;       // promised never to send cross-shard
  };
  std::vector<Port> ports_;

  // Attached and remote-capable (not local-only) nodes per shard; the
  // EOT source reports an idle frontier when the first is nonzero and
  // the second zero. Written during setup, read by the coordinator
  // between windows.
  struct ShardPorts {
    std::size_t attached = 0;
    std::size_t remote = 0;
  };
  std::vector<ShardPorts> shard_ports_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace lnic::net
