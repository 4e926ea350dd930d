// Weakly-consistent RPC endpoint (paper §4.2.1 D3).
//
// λ-NIC deliberately avoids TCP: requests/responses are independent,
// mutually-exclusive message pairs. "A sender (the gateway or external
// services) tracks the outgoing RPCs to lambdas, and is responsible for
// resending a message in case of timeouts or packet drops." This class
// is that sender: it assigns request IDs, fragments multi-packet
// payloads (RDMA-style writes), reassembles multi-fragment responses,
// arms a retransmission timer per request, and reports per-request
// latency and retry counts. Every transmission, first or resent, re-arms
// the same fixed `retransmit_timeout`.
#pragma once

#include <cstdint>

#include "common/id_ring.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/inline_fn.h"
#include "sim/simulator.h"

namespace lnic::proto {

struct RpcConfig {
  /// Time from each transmission to the next (or to giving up).
  SimDuration retransmit_timeout = milliseconds(50);
  std::uint32_t max_retries = 5;
};

struct RpcResponse {
  /// Reassembled response body: a zero-copy view that (on the fast path)
  /// shares the responder's buffer end-to-end.
  net::BufferView payload;
  SimDuration latency = 0;    // send -> complete response
  std::uint32_t retries = 0;
};

/// Room for the gateway's completion closure, (this, record), in place;
/// larger closures (tests, benches) take one heap cell per call.
constexpr std::size_t kRpcCallbackCapacity = 16;
using RpcCallback =
    sim::InlineFn<void(Result<RpcResponse>), kRpcCallbackCapacity>;

class RpcClient {
 public:
  RpcClient(sim::Simulator& sim, net::Network& network, RpcConfig config = {});

  NodeId node() const { return node_; }

  /// Issues one RPC. Multi-packet payloads are sent as RDMA writes; the
  /// callback fires on the complete (reassembled) response or after
  /// max_retries + 1 timeouts. When the simulation has a span recorder
  /// attached and `ctx` is valid, the call records an `rpc.call` span with one `rpc.attempt` child
  /// per transmission (timed-out attempts are annotated), and every
  /// outgoing packet carries the attempt's span context.
  /// `tenant` stamps the lambda header's tenant namespace; the default
  /// keeps legacy single-tenant traffic byte-identical.
  void call(NodeId dst, WorkloadId workload, net::BufferView payload,
            RpcCallback callback, trace::SpanContext ctx = {},
            TenantId tenant = kDefaultTenant);

  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t inflight() const { return pending_.size(); }
  /// Slots in the pending-request ring (grows to the widest window of
  /// live request ids).
  std::size_t pending_slots() const { return pending_.capacity(); }

 private:
  struct Pending {
    NodeId dst = kInvalidNode;
    WorkloadId workload = kInvalidWorkload;
    TenantId tenant = kDefaultTenant;
    // The request body is retained as a view; retransmissions re-slice
    // the same buffer instead of re-copying the payload.
    net::BufferView payload;
    RpcCallback callback;
    SimTime sent_at = 0;
    std::uint32_t retries = 0;
    sim::EventId timer = sim::kInvalidEvent;
    trace::SpanContext ctx;
    trace::SpanId call_span = trace::kInvalidSpan;
    trace::SpanId attempt_span = trace::kInvalidSpan;
  };

  void transmit(RequestId id, Pending& p);
  void arm_timer(RequestId id, Pending& p);
  void on_timeout(RequestId id);
  void on_packet(const net::Packet& packet);

  sim::Simulator& sim_;
  net::Network& network_;
  RpcConfig config_;
  NodeId node_;
  // Requests in flight, by request id (consecutive from 1).
  IdRing<Pending> pending_;
  net::Reassembler responses_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace lnic::proto
