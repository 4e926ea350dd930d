// Coordinated-omission-safe SLO accounting for open-loop load.
//
// Every request carries its *intended* arrival time (when the arrival
// process scheduled it, not when it was actually handed to the system).
// Latency is completion − intended, so a stalled server inflates the
// recorded tail instead of silently delaying the requests that would
// have observed the stall — the classic coordinated-omission bug in
// closed-loop harnesses. The generator is a pure open loop that hands
// each request to the system at its intended time, so one clock, and one
// sample per completion, is all the tracker keeps.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "framework/autoscaler.h"
#include "framework/metrics.h"

namespace lnic::loadgen {

struct SloConfig {
  /// Deadline against intended arrival; on-time successes are goodput,
  /// late successes count as violations.
  SimDuration deadline = milliseconds(10);
};

/// Summary of one measurement window.
struct SloReport {
  SimDuration deadline = 0;
  SimDuration window = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;  // successful completions
  std::uint64_t failed = 0;     // errored (shed, transport failure, ...)
  std::uint64_t late = 0;       // succeeded after the deadline
  double offered_rps = 0.0;
  double goodput_rps = 0.0;  // on-time successes per simulated second
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;  // intended-based
  /// (failed + late) / offered — the fraction of demand that missed SLO.
  double violation_fraction = 0.0;

  struct FnRow {
    std::string function;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;  // failed + late
    double goodput_rps = 0.0;
    double p99_ms = 0.0;
  };
  std::vector<FnRow> per_function;  // sorted by offered, descending

  /// Human-readable multi-line summary (top functions + totals).
  std::string to_string(std::size_t max_functions = 10) const;
};

class SloTracker {
 public:
  /// One function's accounting. stats() hands out references that stay
  /// valid for the tracker's lifetime, so a generator can bind each
  /// function once instead of looking it up by name on every request.
  struct FnStats {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t late = 0;
    Sampler latency;  // intended-based, ns
  };

  explicit SloTracker(SloConfig config = {}) : config_(config) {}

  /// `function`'s stats, created (with nothing offered) on first use;
  /// from then on the function has a report() row and export_to series.
  FnStats& stats(const std::string& function) { return functions_[function]; }

  void on_offered(const std::string& function) { on_offered(stats(function)); }
  void on_offered(FnStats& fn);
  /// `intended` is the arrival process's schedule; `completed` is now;
  /// `ok` is success.
  void on_complete(const std::string& function, SimTime intended,
                   SimTime completed, bool ok) {
    on_complete(stats(function), intended, completed, ok);
  }
  void on_complete(FnStats& fn, SimTime intended, SimTime completed, bool ok);

  SloReport report(SimDuration window) const;

  const SloConfig& config() const { return config_; }
  std::uint64_t offered() const { return offered_; }
  /// Cumulative offered count of one function (0 if never offered).
  std::uint64_t function_offered(const std::string& function) const;
  /// One function's intended-arrival latency sampler (nullptr if the
  /// function has no completions yet).
  const Sampler* function_latency(const std::string& function) const;
  /// Intended-arrival-based latencies (ns) — coordinated-omission safe.
  const Sampler& latency() const { return latency_; }

  /// Writes per-function gauges (loadgen_offered_total{fn=},
  /// loadgen_violations_total{fn=}, loadgen_goodput_rps{fn=}) into a
  /// registry; idempotent, so it can run beside gateway_* exports.
  void export_to(framework::MetricsRegistry& registry,
                 SimDuration window) const;

 private:
  SloConfig config_;
  std::uint64_t offered_ = 0;
  std::map<std::string, FnStats> functions_;
  Sampler latency_;
};

/// Adapts a tracker into the autoscaler's per-function SLO signal: each
/// reading reports the cumulative offered count plus the p99 of the
/// latency samples recorded since the previous reading for that function
/// (a windowed view over the tracker's raw samples; no samples copied
/// out of the tracker). The tracker must outlive the returned callable.
framework::SloSignalFn slo_signal_source(const SloTracker& tracker);

}  // namespace lnic::loadgen
