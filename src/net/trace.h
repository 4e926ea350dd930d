// Packet tracing: a tcpdump for the simulated fabric. Attach a tracer to
// a Network to record every send (including drops) with timestamps.
// perfbench replays the records into its network ledger, and `lnicctl
// metrics` exports the eviction count through the Monitor.
//
// Memory is bounded by a BoundedRing: once `capacity` records are held,
// each new record evicts the oldest one and evicted() counts them.
#pragma once

#include <cstdint>

#include "common/ring.h"
#include "common/types.h"
#include "net/packet.h"

namespace lnic::net {

class PacketTracer {
 public:
  struct Record {
    SimTime time = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    PacketKind kind = PacketKind::kRequest;
    WorkloadId workload = kInvalidWorkload;
    RequestId request = 0;
    std::uint32_t frag_index = 0;
    std::uint32_t frag_count = 1;
    Bytes wire_bytes = 0;
    bool dropped = false;
  };

  /// Called by the Network on every send.
  void record(const Packet& packet, SimTime now, bool dropped);

  /// Retained records, oldest first (at most capacity of them).
  const BoundedRing<Record>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  /// Records evicted from the ring so far (0 until the ring wraps).
  std::uint64_t evicted() const { return records_.evicted(); }
  void clear() { records_.clear(); }

  /// Caps memory for long runs; older records are evicted FIFO. Shrinks
  /// the ring immediately if it already holds more than `max_records`.
  void set_capacity(std::size_t n) { records_.set_capacity(n); }

 private:
  BoundedRing<Record> records_{std::size_t{1} << 20};
};

}  // namespace lnic::net
