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
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"
#include "net/trace.h"
#include "sim/simulator.h"

namespace lnic::net {

using PacketHandler = std::function<void(const Packet&)>;

struct FaultConfig {
  double drop_probability = 0.0;
  double reorder_probability = 0.0;
  SimDuration reorder_max_extra_delay = 0;  // extra delay when reordered
};

class Network {
 public:
  Network(sim::Simulator& sim, FaultConfig faults = {},
          std::uint64_t seed = 1);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; the returned NodeId addresses it in Packet::dst.
  NodeId attach(PacketHandler handler);

  /// Replaces the handler of an existing node (e.g. after worker restart).
  void set_handler(NodeId node, PacketHandler handler);

  /// Queues `packet` for delivery. src/dst must be attached nodes.
  void send(Packet packet);

  void set_faults(FaultConfig faults) { faults_ = faults; }

  /// Attaches a tracer recording every send (nullptr detaches). The
  /// tracer must outlive the network or be detached first.
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_dropped() const { return dropped_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t bytes_sent() const { return bytes_; }

 private:
  sim::Simulator& sim_;
  FaultConfig faults_;
  Rng rng_;  // fault draws
  PacketTracer* tracer_ = nullptr;

  struct Port {
    PacketHandler handler;
    SimTime uplink_free_at = 0;
    SimTime downlink_free_at = 0;
  };
  std::vector<Port> ports_;

  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace lnic::net
