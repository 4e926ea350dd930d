// Per-shard stall accounting for the conservative parallel engine.
//
// The sharded simulator's scaling story lives or dies on *where wall
// time goes*: a shard that finishes its window early sits in the barrier
// until the slowest shard arrives, and the single-threaded merge between
// windows is pure serial overhead. This module measures exactly that,
// with wall clocks only — simulated time is never read or perturbed, so
// instrumented runs stay byte-identical.
//
// Accounting identity (per shard s, by construction):
//
//   busy[s] + barrier_wait[s] == Σ window walls        (window_wall_ns)
//   window_wall_ns + sync_wall_ns == total_wall_ns     (whole run() wall)
//
// so busy + barrier + sync always sums to the run's wall time; the
// breakdown *explains* the wall clock rather than sampling it. "Idle"
// for a conservative-barrier engine IS the barrier wait (run_until
// never sleeps mid-window), plus the shard's share of the serial sync.
//
// Adaptive windows (see sim/sharded.h) add two readings: per window,
// whether the span came from the static lookahead floor or an EOT
// extension, and the mean simulated window span. Lookahead utilization
// clamps each window's contribution to the lookahead horizon so it
// stays in (0, 1] — extended windows saturate it at 1.0 instead of
// inflating it past the scale.
//
// Threading contract: every mutator and snapshot() run on the
// coordinating thread (between windows, or during shard 0's window —
// the Monitor's scrape timer fires inside shard 0's event loop, which
// is the coordinating thread). Worker threads never touch the
// collector; the coordinator reads their per-window numbers after the
// barrier, where the window mutex provides happens-before. No atomics
// needed, and TSan agrees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lnic::sim {

/// Immutable snapshot of the collector, cheap to copy.
struct ShardStats {
  unsigned shards = 1;
  std::uint64_t windows = 0;
  /// Windows whose end was pushed past the static lookahead floor by an
  /// EOT report (adaptive sync; 0 in static mode).
  std::uint64_t windows_extended = 0;
  /// Wall nanoseconds inside run()/run_until() calls (all of them).
  std::uint64_t total_wall_ns = 0;
  /// Σ per-window walls (parallel region, slowest shard paces it).
  std::uint64_t window_wall_ns = 0;
  /// Serial overhead: cross-shard merge + window bookkeeping.
  std::uint64_t sync_wall_ns() const {
    return total_wall_ns > window_wall_ns ? total_wall_ns - window_wall_ns : 0;
  }

  // Per-shard accumulations (size == shards).
  std::vector<std::uint64_t> busy_ns;
  std::vector<std::uint64_t> barrier_ns;  // window wall − busy, per window
  std::vector<std::uint64_t> events;
  std::vector<std::uint64_t> cross_posts;  // posted *by* this shard

  /// Row-major [src * shards + dst] cross-shard event counts.
  std::vector<std::uint64_t> cross_matrix;
  std::uint64_t cross(unsigned src, unsigned dst) const {
    return cross_matrix[src * shards + dst];
  }

  /// Mean min(window span, lookahead) / lookahead: 1.0 means every
  /// window used at least its full static horizon; low values mean
  /// event times force short windows. Always in (0, 1] once a window
  /// ran.
  double lookahead_utilization = 0.0;

  /// Mean simulated window span in ns (extended windows included, so
  /// this can exceed the lookahead; 0 before the first window).
  double mean_window_span_ns = 0.0;

  /// Barrier-wall outliers flagged to the flight recorder, and the
  /// multiple-of-mean threshold that flags them.
  std::uint64_t barrier_outliers = 0;
  double outlier_threshold = 8.0;

  /// Recent windows (bounded ring, oldest first) for timeline export.
  struct Window {
    SimTime t0 = 0;            // simulated window start
    SimTime end = 0;           // simulated window end (inclusive)
    std::uint64_t wall_ns = 0; // coordinator wall time for the window
    bool eot_extended = false; // end set by an EOT report, not the floor
    std::vector<std::uint64_t> busy_ns;  // per shard
  };
  std::vector<Window> recent;

  /// Multi-line stall breakdown (the table perf_parallel prints).
  std::string to_string() const;
};

/// Accumulates the numbers; owned by ShardedSimulator. See the threading
/// contract above — this class is deliberately lock-free because it is
/// single-threaded by construction.
class ShardStatsCollector {
 public:
  explicit ShardStatsCollector(unsigned shards);

  /// One completed window: `busy_ns`/`events` are per-shard (size ==
  /// shards), `wall_ns` the coordinator-measured window wall. `end`
  /// must be the *effective* end (drain windows pass the drained
  /// clock, never kSimTimeMax). `eot_extended` marks windows whose end
  /// came from an EOT report rather than the static lookahead floor.
  /// Flags a flight-recorder barrier outlier when a window's wall blows
  /// past the running mean by more than the configured threshold.
  void record_window(SimTime t0, SimTime end, SimDuration lookahead,
                     bool eot_extended, std::uint64_t wall_ns,
                     const std::vector<std::uint64_t>& busy_ns,
                     const std::vector<std::uint64_t>& events);

  /// Overwrites shard `src`'s cumulative posted-to-dst row.
  void set_cross_row(unsigned src, const std::vector<std::uint64_t>& by_dst);

  /// Wall time of a whole run()/run_until() call (adds to total).
  void add_run_wall(std::uint64_t ns);

  /// Single-shard delegated run: counts as pure busy on shard 0.
  void add_delegated_run(std::uint64_t wall_ns, std::uint64_t events);

  /// Barrier-outlier sensitivity: a window is flight-recorded when its
  /// wall exceeds `multiple` times the running mean (after burn-in).
  /// Benches tighten this to catch smaller stalls; must be > 1.
  void set_outlier_threshold(double multiple);
  double outlier_threshold() const { return outlier_threshold_; }

  ShardStats snapshot() const;

 private:
  unsigned shards_;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_extended_ = 0;
  std::uint64_t total_wall_ns_ = 0;
  std::uint64_t window_wall_ns_ = 0;
  std::uint64_t barrier_outliers_ = 0;
  double outlier_threshold_ = 8.0;
  std::vector<std::uint64_t> busy_ns_;
  std::vector<std::uint64_t> barrier_ns_;
  std::vector<std::uint64_t> events_;
  std::vector<std::uint64_t> cross_matrix_;
  // Lookahead-utilization accumulators (windows with finite lookahead).
  // util_span_sum_ clamps each window's span to its lookahead horizon;
  // span_sum_ keeps the full span for the mean-window-span reading.
  double util_span_sum_ = 0.0;
  double horizon_sum_ = 0.0;
  double span_sum_ = 0.0;
  std::uint64_t span_windows_ = 0;
  std::vector<ShardStats::Window> recent_;
  std::size_t recent_head_ = 0;  // ring insertion point once full
  static constexpr std::size_t kRecentCapacity = 1024;
};

}  // namespace lnic::sim
