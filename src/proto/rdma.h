// One-sided RDMA plumbing for NIC-resident stores (SmartOffloading
// style: the SmartNIC caches index nodes and reaches its host's DRAM
// with one-sided verbs). Two endpoints ride the existing
// kRdmaWrite/kRdmaEvent packet path:
//
//  - HostMemoryNode: the passive target. It answers READ requests with a
//    payload of the requested length after a DRAM+DMA service delay, and
//    acknowledges WRITE requests after absorbing their payload. It is a
//    *timing* server: the authoritative bytes live in the simulated
//    store's in-memory structures, so transfers carry correctly-sized
//    synthetic payloads (views of one shared zero buffer — no per-op
//    allocation, and serialization delays on the fabric stay faithful).
//
//  - RdmaQp: the active side (the NIC). read()/write() issue a verb and
//    invoke the completion callback when the response (reassembled if
//    the transfer spanned fragments) arrives. Requests are matched to
//    completions by request id; any number may be in flight.
//
// Wire encoding: verbs travel as kRdmaWrite packets with
// LambdaHeader::workload_id carrying the opcode. READ requests have a
// 12-byte body [addr u64][len u32]; WRITE requests carry the data bytes
// themselves (fragmented by net::fragment when above kMaxPayload).
// Completions are kRdmaEvent packets echoing the request id: READ
// completions carry the data, WRITE completions an 8-byte ack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/buffer.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::proto {

/// Opcode carried in LambdaHeader::workload_id of verb packets.
constexpr WorkloadId kRdmaOpRead = 0;
constexpr WorkloadId kRdmaOpWrite = 1;

struct HostMemoryStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  Bytes bytes_read = 0;     // payload bytes served to readers
  Bytes bytes_written = 0;  // payload bytes absorbed from writers
};

/// Passive host-DRAM target; attaches one node to the fabric.
class HostMemoryNode {
 public:
  HostMemoryNode(sim::Simulator& sim, net::Network& network);

  NodeId node() const { return node_; }
  const HostMemoryStats& stats() const { return stats_; }

 private:
  void handle_packet(const net::Packet& packet);
  void serve(const net::Packet& request, net::BufferView body);

  /// A view of `len` synthetic bytes (shared zero storage, grown on
  /// demand) — read completions without per-verb allocation.
  net::BufferView synthetic(Bytes len);

  sim::Simulator& sim_;
  net::Network& network_;
  NodeId node_;
  Buffer::Ptr zeros_;
  HostMemoryStats stats_;
  net::Reassembler reassembly_;
};

struct RdmaQpStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  Bytes bytes_fetched = 0;
  Bytes bytes_pushed = 0;
};

/// Active verb issuer; attaches its own node (the QP's endpoint).
class RdmaQp {
 public:
  RdmaQp(sim::Simulator& sim, net::Network& network);

  NodeId node() const { return node_; }
  const RdmaQpStats& stats() const { return stats_; }
  std::uint64_t inflight() const { return pending_.size(); }

  /// One-sided read of `len` bytes at `addr`; `done` fires when the full
  /// completion has arrived at the QP.
  void read(NodeId host, std::uint64_t addr, Bytes len,
            std::function<void()> done);

  /// One-sided write of `len` bytes to `addr`; `done` fires on the ack.
  void write(NodeId host, std::uint64_t addr, Bytes len,
             std::function<void()> done);

 private:
  void handle_packet(const net::Packet& packet);
  /// A view of `len` synthetic bytes (shared zero storage, grown on
  /// demand) — sized payloads without per-verb allocation.
  net::BufferView synthetic(Bytes len);

  sim::Simulator& sim_;
  net::Network& network_;
  NodeId node_;
  RequestId next_id_ = 1;
  Buffer::Ptr zeros_;

  std::map<RequestId, std::function<void()>> pending_;  // id -> done
  net::Reassembler completions_;
  RdmaQpStats stats_;
};

}  // namespace lnic::proto
