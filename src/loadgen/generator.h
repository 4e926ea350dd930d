// Open-loop load generator / trace replayer.
//
// Arrivals are scheduled on the simulator by an ArrivalProcess (or a
// recorded trace), independent of completions — the generator never
// waits for a response before offering the next request, which is what
// distinguishes offered load from the closed-loop harness in
// bench/harness.h. Each arrival picks a function (Zipf popularity over
// the registered profiles) and a payload size, then hands a Request to
// the caller-supplied Sink; the sink maps it onto whatever system is
// under test (a framework::Gateway, an echo pool, a raw RpcClient) and
// signals completion. SLO accounting is coordinated-omission safe: the
// latency clock starts at the *intended* arrival time, so queueing
// anywhere downstream of the generator is charged to the request.
//
// Determinism: all draws come from streams derived from config.seed, so
// the same (config, profiles) replays the identical request sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "framework/gateway.h"
#include "framework/metrics.h"
#include "loadgen/arrival.h"
#include "loadgen/popularity.h"
#include "loadgen/slo.h"
#include "loadgen/trace.h"
#include "sim/inline_fn.h"
#include "sim/simulator.h"

namespace lnic::loadgen {

/// One offered request. The sink decides the concrete payload bytes
/// (workload encodings are its business); `payload_bytes` is the size
/// the model drew.
struct Request {
  std::uint64_t id = 0;
  SimTime intended = 0;
  std::string function;
  Bytes payload_bytes = 0;
};

/// Completion signal: true = success, false = failure (shed, transport
/// error, ...). Must be called exactly once per sunk request. Move-only;
/// the generator's own closure, (this, stats, intended time), fits in
/// place.
constexpr std::size_t kCompletionCapacity = 24;
using CompletionFn = sim::InlineFn<void(bool ok), kCompletionCapacity>;
using Sink = std::function<void(const Request&, CompletionFn done)>;

struct FunctionProfile {
  std::string name;
  PayloadDist payload = PayloadDist::fixed_size(64);
};

/// n profiles named with function_name(rank), all sharing `payload`.
std::vector<FunctionProfile> uniform_functions(
    std::size_t n, PayloadDist payload = PayloadDist::fixed_size(64));

struct LoadGenConfig {
  ArrivalSpec arrivals;
  /// Popularity skew across the profile list (profile 0 hottest);
  /// 0 = uniform.
  double zipf_s = 0.0;
  /// Stop offering after this much simulated time (0 = no time limit;
  /// stop() or max_requests ends the run).
  SimDuration duration = 0;
  /// Stop offering after this many requests (0 = unlimited).
  std::uint64_t max_requests = 0;
  std::uint64_t seed = 1;
  SloConfig slo;
};

class LoadGenerator {
 public:
  /// Synthetic mode: arrivals from config.arrivals, functions from the
  /// profile list (must be non-empty).
  LoadGenerator(sim::Simulator& sim, LoadGenConfig config,
                std::vector<FunctionProfile> profiles, Sink sink);
  /// Replay mode: arrivals, function names and payload sizes from the
  /// trace (timestamps relative to start()).
  LoadGenerator(sim::Simulator& sim, LoadGenConfig config,
                std::vector<TraceEvent> replay, Sink sink);

  /// Leaves the gauges' last values behind as plain gauges.
  ~LoadGenerator();
  // Scheduled events and the registry's collect hook hold `this`.
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Exports offered-load gauges (loadgen_offered_rps{fn=},
  /// loadgen_inflight, loadgen_offered_requests) into `registry` — pass
  /// the gateway's registry to graph supply vs demand together. They are
  /// evaluated when the registry is scraped or read, not per request:
  /// loadgen_offered_rps{fn} is fn's offered count over the time from
  /// start() to the generator's last event. Series appear with the first
  /// event after attaching. Re-pointing (nullptr detaches) and
  /// destruction leave the last values behind as plain gauges; the
  /// registry must outlive the attachment.
  void set_metrics(framework::MetricsRegistry* registry);

  /// Starts (or restarts) offering; a restart replaces the pending
  /// arrival, so one arrival at most is ever pending.
  void start();
  /// Stops offering new arrivals; already-offered requests still
  /// dispatch and complete.
  void stop();

  /// True once every offered request has completed and no more will be
  /// offered.
  bool drained() const {
    return !offering_ && completed_ + failed_ == offered_;
  }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint32_t inflight() const { return inflight_; }

  SloTracker& slo() { return slo_; }
  const SloTracker& slo() const { return slo_; }
  /// Report over [start, now] (or a caller-chosen window).
  SloReport report() const;

 private:
  /// Per-function handles, one per distinct function name, created on its
  /// first offer. Map nodes never move, so the pointers to them stay valid.
  struct Function {
    SloTracker::FnStats* slo = nullptr;  // offered count and SLO stats
    double* rps_gauge = nullptr;  // loadgen_offered_rps{fn} in metrics_
  };

  void arm_next();
  /// Offers next_. `slot` indexes handles_: the profile, or the trace
  /// name in replay.
  void on_arrival(std::size_t slot);
  /// The collect hook: writes the gauges' current values into metrics_.
  void collect();

  sim::Simulator& sim_;
  LoadGenConfig config_;
  std::vector<FunctionProfile> profiles_;
  std::vector<TraceEvent> replay_;
  std::size_t replay_next_ = 0;
  Sink sink_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<ZipfSelector> zipf_;
  Rng payload_rng_;
  SloTracker slo_;
  framework::MetricsRegistry* metrics_ = nullptr;

  bool offering_ = false;
  SimTime started_at_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint32_t inflight_ = 0;
  sim::EventId pending_ = sim::kInvalidEvent;
  /// The one pending arrival's request: rewriting it reuses the name's
  /// storage instead of allocating a copy per offered request.
  Request next_;
  std::map<std::string, Function> functions_;  // name order: gauge order
  /// Bound on each slot's first offer; slots sharing a name share a node.
  std::vector<Function*> handles_;
  std::vector<std::uint32_t> replay_slots_;  // handles_ index per event
  /// Time of the last arrival, dispatch or completion since metrics_ was
  /// attached; unset until one happens.
  std::optional<SimTime> last_event_;
  double* inflight_gauge_ = nullptr;  // loadgen_inflight
  double* offered_gauge_ = nullptr;   // loadgen_offered_requests
};

using EncodeFn = std::function<std::vector<std::uint8_t>(const Request&)>;

/// Sink adapter for a framework::Gateway: invokes `request.function`
/// with `encode(request)` and reports result.ok(). Declared here so
/// every driver (benches, lnicctl, examples) builds the same adapter.
Sink gateway_sink(framework::Gateway& gateway, EncodeFn encode);

}  // namespace lnic::loadgen
