// Flight recorder: an always-on bounded ring of the last N anomaly
// events (sheds, quarantines, DRR drops, quota rejections, RPC timeouts,
// exhausted transaction retries). The point is post-hoc debuggability:
// when a bench fails or a run behaves oddly, the recorder answers "what
// went wrong *just before*?" without anyone having turned tracing on in
// advance.
//
// Recording is pure wall-clock bookkeeping — no simulated events are
// scheduled, no simulated clocks are read beyond the caller-supplied
// timestamp — so an instrumented run replays byte-for-byte identical to
// an uninstrumented one. Each sim::Simulator owns one recorder
// (flight_recorder()), and every component of that simulation records
// into it, so simulations running side by side on several threads keep
// their anomalies apart and no record takes a lock. Steady-state cost
// is one slot overwrite per anomaly, and anomalies are rare by
// definition.
#pragma once

#include <cstdint>
#include <string>

#include "common/ring.h"
#include "common/types.h"

namespace lnic::flightrec {

enum class Kind : std::uint8_t {
  kGatewayShed,        // admission queue full / deadline shed
  kGatewayQuarantine,  // worker quarantined after failures
  kQueueDrop,          // NIC dispatch queue overflow (DRR queue drop)
  kUndeployDrop,       // queued requests dropped by tenant undeploy
  kQuotaReject,        // deploy rejected by per-tenant quota admission
  kRpcTimeout,         // RPC timed out after its last retransmission
  kTxnRetryExhausted,  // transaction aborted past its retry budget
  kOther,
};

const char* to_string(Kind kind);

/// One recorded anomaly. `a`/`b` are kind-specific small operands (e.g.
/// tenant id and queue depth) so common cases need no string formatting;
/// `detail` carries the human-readable context.
struct Event {
  SimTime time = 0;  // simulated time at which the anomaly occurred
  Kind kind = Kind::kOther;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string detail;
};

class FlightRecorder {
 public:
  /// A capacity of 0 is raised to 1: the recorder always keeps the
  /// latest anomaly.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void record(SimTime time, Kind kind, std::uint64_t a, std::uint64_t b,
              std::string detail) {
    ring_.push(Event{time, kind, a, b, std::move(detail)});
  }
  void record(SimTime time, Kind kind, std::string detail) {
    record(time, kind, 0, 0, std::move(detail));
  }

  /// The retained events, oldest first.
  const BoundedRing<Event>& events() const { return ring_; }
  /// Total events ever recorded (including evicted ones).
  std::uint64_t recorded() const { return ring_.evicted() + ring_.size(); }

  /// Human-readable dump of the ring, oldest first; empty-ring dumps say
  /// so explicitly (an empty recorder after a failure is itself a clue).
  std::string dump() const;

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  BoundedRing<Event> ring_;
};

}  // namespace lnic::flightrec
