// The client side of the KV calls a lambda makes through kExtCall
// (paper D3: lambdas issue RPCs to external services), shared by the NIC
// and host backends.
//
// A backend parks the suspended request (its waiter) on a call, which
// gets a token: the request id of its kKvRequest. The call sends
// make_kv_request and arms a timer; on timeout it resends the same
// token, up to kKvCallMaxResends times, then hands the waiter back with
// no reply, and the backend finishes the request as a trap. That frees
// the NPU thread or host slot the request held, and the gateway's RPC
// retry runs the request again. The reply cancels the timer (a
// cancelled event is never dispatched) and hands the waiter back with
// the value. A resent SET is idempotent at the cache, since it carries
// the same key and value; a reply for a finished token (a late
// duplicate) finds no waiter and is dropped.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/id_ring.h"
#include "common/types.h"
#include "microc/interp.h"
#include "net/network.h"
#include "net/packet.h"
#include "sim/inline_fn.h"
#include "sim/simulator.h"

namespace lnic::proto {

/// How long a KV call waits for its reply before resending. A KV round
/// trip is about 10 µs (two fabric hops plus 4–6 µs of cache service),
/// so a millisecond is long enough that only a lost packet, never a slow
/// one, triggers a resend.
constexpr SimDuration kKvCallTimeout = milliseconds(1);
/// Resends before a call fails. A call then fails only after six losses
/// in a row, and frees its thread or slot 6 ms after its first send.
constexpr std::uint32_t kKvCallMaxResends = 5;

/// What a backend finishes a request with when its KV call timed out: a
/// trap charged the `cycles` the request ran before the call.
inline microc::Outcome kv_timeout_trap(std::uint64_t cycles) {
  microc::Outcome outcome;
  outcome.state = microc::RunState::kTrap;
  outcome.cycles = cycles;
  outcome.trap_message = "kv call timed out";
  return outcome;
}

/// KV-call counters, part of the NIC and host stats.
struct KvCallStats {
  std::uint64_t kv_retransmits = 0;  // requests resent after a timeout
  std::uint64_t kv_timeouts = 0;     // calls that failed after every resend
};

/// The KV calls one backend node has in flight, by token (consecutive
/// from 1). `Waiter` is what the backend parks: a pointer to its flight,
/// or an owning pointer to its job.
template <typename Waiter>
class KvCalls {
 public:
  /// Receives each call's waiter exactly once: with the reply value, or
  /// with nullopt when the call timed out after every resend.
  using Handler =
      sim::InlineFn<void(Waiter, std::optional<std::uint64_t>), 16>;

  KvCalls(sim::Simulator& sim, net::Network& network, NodeId self,
          KvCallStats& stats, Handler handler)
      : sim_(sim),
        network_(network),
        self_(self),
        stats_(stats),
        handler_(std::move(handler)) {}

  /// Node that answers the calls (the memcached server).
  void set_server(NodeId server) { server_ = server; }

  /// Parks `waiter` on a new call for `ext` and returns its token. The
  /// request goes out on send(token).
  RequestId park(Waiter waiter, const microc::ExtRequest& ext) {
    const auto [token, call] = calls_.add();
    call->waiter = std::move(waiter);
    call->op = static_cast<WorkloadId>(ext.kind);
    call->key = ext.key;
    call->value = ext.value;
    return token;
  }

  /// Sends a parked call's request and arms its timer.
  void send(RequestId token) { transmit(token, *calls_.find(token)); }

  /// Takes a kKvResponse.
  void on_reply(const net::Packet& packet) {
    const RequestId token = packet.lambda.request_id;
    Call* call = calls_.find(token);
    if (call == nullptr) return;  // late duplicate
    sim_.cancel(call->timer);
    Waiter waiter = calls_.take(token).waiter;
    handler_(std::move(waiter), net::decode_kv_reply(packet.payload));
  }

 private:
  struct Call {
    Waiter waiter{};
    WorkloadId op = net::kKvGet;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint32_t resends = 0;
    sim::EventId timer = sim::kInvalidEvent;
  };

  void transmit(RequestId token, Call& call) {
    network_.send(net::make_kv_request(self_, server_, token, call.op,
                                       call.key, call.value));
    call.timer = sim_.schedule(kKvCallTimeout,
                               [this, token] { on_timeout(token); });
  }

  void on_timeout(RequestId token) {
    Call* call = calls_.find(token);
    if (call == nullptr) return;  // a stale timer: the call finished
    if (call->resends < kKvCallMaxResends) {
      ++call->resends;
      ++stats_.kv_retransmits;
      transmit(token, *call);
      return;
    }
    ++stats_.kv_timeouts;
    Waiter waiter = calls_.take(token).waiter;
    handler_(std::move(waiter), std::nullopt);
  }

  sim::Simulator& sim_;
  net::Network& network_;
  NodeId self_;
  NodeId server_ = kInvalidNode;
  KvCallStats& stats_;
  Handler handler_;
  IdRing<Call> calls_;
};

}  // namespace lnic::proto
