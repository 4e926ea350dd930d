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
// an uninstrumented one. The ring is process-wide, so it is
// mutex-guarded (simulations on different threads would share it) and
// bounded; steady-state cost is one lock and one slot overwrite per
// anomaly, and anomalies are rare by definition.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

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
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(SimTime time, Kind kind, std::uint64_t a, std::uint64_t b,
              std::string detail);
  void record(SimTime time, Kind kind, std::string detail) {
    record(time, kind, 0, 0, std::move(detail));
  }

  /// Copies the ring, oldest first.
  std::vector<Event> snapshot() const;
  /// Total events ever recorded (including evicted ones).
  std::uint64_t recorded() const;
  /// Events evicted to respect the capacity bound.
  std::uint64_t evicted() const;
  std::size_t capacity() const;
  /// Resizes the ring, evicting oldest entries if shrinking.
  void set_capacity(std::size_t capacity);
  void clear();

  /// Human-readable dump of the ring, oldest first; empty-ring dumps say
  /// so explicitly (an empty recorder after a failure is itself a clue).
  std::string dump() const;

  /// The process-wide recorder every built-in instrumentation site
  /// writes to. Benches and lnicctl dump this on demand or on failure.
  static FlightRecorder& global();

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  mutable std::mutex mu_;
  std::deque<Event> ring_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
};

}  // namespace lnic::flightrec
