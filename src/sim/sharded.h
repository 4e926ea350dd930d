// Sharded parallel simulation: per-island event shards with conservative
// synchronization.
//
// ShardedSimulator layers N independent arena engines (one Simulator per
// shard, each with its own calendar wheel) over OS threads and advances
// them in lockstep time windows:
//
//   T0   = min over shards of next_event_time()
//   end  = max(T0, min over shards of EOT) + lookahead - 1
//   every shard runs run_until(end) concurrently, then all block on a
//   barrier; cross-shard events buffered during the window are merged and
//   scheduled; repeat.
//
// The lookahead contract: every cross-shard interaction must take at
// least `lookahead` simulated time (for the network fabric this is link
// propagation + switch forwarding latency — the minimum time a packet is
// "in flight" and owned by neither endpoint). An event posted at local
// time t >= T0 therefore lands at t + lookahead > T0 + lookahead - 1,
// strictly after a window that long, so no shard can ever receive an
// event in its past. Windows need no null messages: the barrier itself
// is the sync point.
//
// EOT (earliest output time): the T0 term alone assumes every shard
// might send cross-shard at T0. Before opening a window the coordinator
// also asks each shard for the earliest time it could send cross-shard;
// a send at t >= min EOT lands after min EOT + lookahead - 1, so a
// window reaching that far is exactly as safe, and the T0 term keeps
// every window at least one lookahead long. EOT sources are registered
// per shard (the network fabric derives them from per-node locality
// declarations — see net::Network::set_local_only); a shard without
// one reports next_event_time(), the earliest it could send. With no
// declarations min EOT == T0, so every window is one lookahead long;
// when every shard reports +inf the window runs to the horizon. EOTs
// are pure functions of simulated state, so runs stay bit-reproducible
// for a fixed shard count + seed. A cross-shard post landing inside the
// active window (an undercut lookahead or a broken EOT promise) aborts.
//
// Determinism: cross-shard posts are stamped (time, global-seq) where
// global-seq packs {source shard : 16, per-source count : 48}. The merge
// at each barrier buffers per (src, dst) and sorts per destination by
// that key before scheduling; each destination's insertion order — and
// hence its (time, seq) dispatch order — is the same subsequence a global
// sort would produce, a pure function of simulation state, never of
// thread scheduling. Runs are bit-reproducible for a fixed shard count
// and seed.
//
// Single-shard mode bypasses all of this: every call delegates straight
// to the one underlying Simulator on the calling thread, so shards=1
// dispatches in the exact (time, seq) order of the classic engine and
// every deterministic bench replays byte-for-byte; windows never exist.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "sim/shard_stats.h"
#include "sim/simulator.h"

namespace lnic::sim {

class ShardedSimulator {
 public:
  /// Earliest possible cross-shard send time of one shard, evaluated by
  /// the coordinator between windows. Must be a pure function of
  /// simulated state (never wall clocks or thread state) and must be
  /// conservative: the shard promises not to post cross-shard before the
  /// returned time. kSimTimeMax means "outbound frontier idle".
  using EotFn = std::function<SimTime()>;

  /// Creates `shards` independent event shards (>= 1). Worker threads are
  /// spawned only when shards > 1.
  explicit ShardedSimulator(unsigned shards = 1);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  /// The per-shard engine. Entities pinned to shard `s` schedule their
  /// local events here; all of a node's state lives on exactly one shard.
  Simulator& shard(unsigned s) { return *shards_[s].sim; }
  const Simulator& shard(unsigned s) const { return *shards_[s].sim; }

  /// Tightens the lookahead to at most `min_delay`. Called by every
  /// cross-shard coupling (the network fabric) with its minimum
  /// interaction latency; the effective lookahead is the min over all
  /// callers. Must be positive — validate_lookahead() reports violations.
  /// Both the window floor and the EOT extension are recomputed from the
  /// current lookahead at every window, so a late, tighter constraint
  /// takes effect at the next window.
  void constrain_lookahead(SimDuration min_delay);
  SimDuration lookahead() const { return lookahead_; }

  /// Checks that the configured lookahead permits conservative parallel
  /// execution: rejects zero/negative lookahead when shards > 1 (a
  /// zero-delay cross-shard link would let one shard schedule into
  /// another shard's past).
  Status validate_lookahead() const;

  /// Registers shard `s`'s EOT source; an empty `fn` unregisters it.
  /// Unset shards report next_event_time(), which is sound but never
  /// extends a window. Call between runs, never mid-run.
  void set_eot_source(unsigned s, EotFn fn);

  /// Enqueues `fn` on shard `dst` at absolute time `at`, stamped with the
  /// next (time, global-seq) key from shard `src`. Must be called from
  /// code running on shard `src` (or from the coordinating thread between
  /// windows). Cross-shard posts inside a window must satisfy
  /// `at >= shard(src).now() + lookahead()`. A post landing at or before
  /// the active window's end aborts: either it undercut the lookahead or
  /// an EOT source promised a later send than actually happened.
  void post(unsigned src, unsigned dst, SimTime at, EventFn fn);

  /// Runs until every shard drains (cross-shard mail included). Returns
  /// total events dispatched across shards.
  std::uint64_t run();

  /// Runs all shards up to and including `deadline`; every shard's clock
  /// ends at `deadline`. Returns total events dispatched.
  std::uint64_t run_until(SimTime deadline);

  /// As run_until, but re-evaluates `stop` at every window barrier and
  /// returns early (shards aligned at the last window's end) once it
  /// turns true. Lets callers wait for a completion flag in workloads
  /// whose event queues never drain (heartbeats, periodic timers). Note
  /// that EOT-extended windows coarsen barrier granularity, so runs may
  /// overshoot the stop condition by up to one extended window span.
  std::uint64_t run_until(SimTime deadline, const std::function<bool()>& stop);

  /// Shard 0's clock. All shards share this value at every barrier, so
  /// between runs it is *the* simulation time.
  SimTime now() const { return shards_[0].sim->now(); }

  /// Live pending events across shards plus undelivered cross-shard mail.
  std::size_t pending() const;

  std::uint64_t events_dispatched() const;

  /// Cross-shard events posted since construction.
  std::uint64_t cross_shard_posts() const;

  /// Synchronization windows executed by multi-shard runs.
  std::uint64_t windows_executed() const { return windows_; }

  /// Windows whose end was pushed past the lookahead floor by an EOT
  /// report.
  std::uint64_t windows_extended() const { return windows_extended_; }

  /// Barriers whose cross-shard merge was skipped outright because zero
  /// events were buffered anywhere (the no-traffic fast path).
  std::uint64_t barrier_merge_skips() const { return merge_skips_; }

  /// Wall-clock stall accounting: per-shard busy / barrier-wait, serial
  /// sync overhead, cross-shard event matrix, recent-window ring. Pure
  /// wall-clock bookkeeping — instrumentation never reads or perturbs
  /// simulated time, so runs stay byte-identical. Must be called from
  /// the coordinating thread (the thread that calls run()).
  ShardStats shard_stats() const { return stats_->snapshot(); }
  /// Collector tuning (recent-window ring capacity, barrier-outlier
  /// threshold); coordinator only.
  ShardStatsCollector& stats_collector() { return *stats_; }

 private:
  /// A cross-shard event buffered until the next barrier. gseq packs
  /// {src shard : 16, per-source sequence : 48} so the barrier merge
  /// order is thread-schedule independent. The destination is implied by
  /// which per-(src,dst) buffer holds the event.
  struct RemoteEvent {
    SimTime at;
    std::uint64_t gseq;
    EventFn fn;
  };

  struct Shard {
    std::unique_ptr<Simulator> sim;
    // Cross-shard events buffered by destination (size == shards).
    // Written only by the shard's own thread during a window (or the
    // coordinator between windows); drained single-threaded at barriers.
    // Vectors keep their capacity across windows, so steady-state
    // barriers allocate nothing.
    std::vector<std::vector<RemoteEvent>> outbox_by_dst;
    std::size_t outbox_count = 0;
    std::uint64_t next_post_seq = 0;
    std::uint64_t window_dispatched = 0;
    // Wall nanoseconds this shard spent inside run_shard this window;
    // same ownership discipline as window_dispatched.
    std::uint64_t window_busy_ns = 0;
    // Cumulative cross-shard posts by destination (size == shards).
    std::vector<std::uint64_t> posts_by_dst;
  };

  /// Moves all outbox entries into destination shards, sorted per
  /// destination by (at, gseq). Runs single-threaded (between windows).
  void flush_remote();

  /// One synchronized window [t0, end]: all shards run_until(end) in
  /// parallel. Returns events dispatched this window.
  std::uint64_t run_window(SimTime t0, SimTime end, bool eot_extended);

  /// Shared core of run()/run_until(): windows until `deadline` (or
  /// drained when `drain`), checking `stop` at barriers when non-null.
  std::uint64_t run_windows(SimTime deadline, bool drain,
                            const std::function<bool()>* stop);

  /// min over shards of their EOT report (coordinator thread, between
  /// windows).
  SimTime min_eot() const;

  void worker_loop(unsigned s);

  std::vector<Shard> shards_;
  SimDuration lookahead_ = kSimTimeMax;
  std::vector<EotFn> eot_sources_;
  std::uint64_t windows_ = 0;
  std::uint64_t windows_extended_ = 0;
  std::uint64_t merge_skips_ = 0;
  // Pooled merge scratch: reused across barriers, capacity persists.
  std::vector<RemoteEvent> merge_buf_;
  std::unique_ptr<ShardStatsCollector> stats_;

  // Window barrier for the persistent worker threads (shards 1..N-1;
  // shard 0 runs on the coordinating thread). The coordinator publishes
  // {window_end_, window_active_, epoch_}; workers run their shard and
  // report done. window_end_/window_active_ are constant for the length
  // of a window, so shard threads may read them lock-free inside one
  // (the epoch handshake orders the writes).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  SimTime window_end_ = 0;
  bool window_active_ = false;
  std::uint64_t epoch_ = 0;
  unsigned done_count_ = 0;
  bool shutdown_ = false;
};

}  // namespace lnic::sim
