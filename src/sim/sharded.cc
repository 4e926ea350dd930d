#include "sim/sharded.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace lnic::sim {

namespace {

using WallClock = std::chrono::steady_clock;

std::uint64_t wall_ns_since(WallClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           start)
          .count());
}

/// Runs one shard for one window. A window ending at kSimTimeMax means
/// "drain": use run() so the shard's clock stops at its last event
/// instead of saturating at the far future.
std::uint64_t run_shard(Simulator& sim, SimTime end) {
  return end == kSimTimeMax ? sim.run() : sim.run_until(end);
}

[[noreturn]] void die_lookahead(SimTime at, unsigned shard, SimTime clock) {
  std::fprintf(stderr,
               "ShardedSimulator: lookahead violation: cross-shard event at "
               "t=%" PRId64 " ns is behind shard %u's clock t=%" PRId64
               " ns; every cross-shard coupling must register a positive "
               "lookahead via constrain_lookahead()\n",
               at, shard, clock);
  std::abort();
}

[[noreturn]] void die_in_window(SimTime at, unsigned src, unsigned dst,
                                SimTime window_end) {
  std::fprintf(stderr,
               "ShardedSimulator: shard %u posted a cross-shard event to "
               "shard %u at t=%" PRId64
               " ns inside the active window ending t=%" PRId64
               " ns; either the post undercut the lookahead or an EOT "
               "source promised no sends this early (check "
               "net::Network::set_local_only declarations)\n",
               src, dst, at, window_end);
  std::abort();
}

}  // namespace

ShardedSimulator::ShardedSimulator(unsigned shards) {
  if (shards == 0) shards = 1;
  shards_.resize(shards);
  for (auto& sh : shards_) {
    sh.sim = std::make_unique<Simulator>();
    sh.outbox_by_dst.resize(shards);
    sh.posts_by_dst.assign(shards, 0);
  }
  eot_sources_.resize(shards);
  stats_ = std::make_unique<ShardStatsCollector>(shards);
  if (shards > 1) {
    workers_.reserve(shards - 1);
    for (unsigned s = 1; s < shards; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }
}

void ShardedSimulator::constrain_lookahead(SimDuration min_delay) {
  lookahead_ = std::min(lookahead_, min_delay);
}

Status ShardedSimulator::validate_lookahead() const {
  if (shards() > 1 && lookahead_ <= 0) {
    return make_error(
        "sharded simulation requires positive lookahead: a zero-delay "
        "cross-shard link would deliver into another shard's past "
        "(lookahead = " +
        std::to_string(lookahead_) + " ns)");
  }
  return Status::ok_status();
}

void ShardedSimulator::set_eot_source(unsigned s, EotFn fn) {
  eot_sources_[s] = std::move(fn);
}

SimTime ShardedSimulator::min_eot() const {
  SimTime eot = kSimTimeMax;
  for (unsigned s = 0; s < shards(); ++s) {
    const SimTime shard_eot = eot_sources_[s]
                                  ? eot_sources_[s]()
                                  : shards_[s].sim->next_event_time();
    eot = std::min(eot, shard_eot);
  }
  return eot;
}

void ShardedSimulator::post(unsigned src, unsigned dst, SimTime at,
                            EventFn fn) {
  if (src == dst) {
    shards_[dst].sim->schedule_at(at, std::move(fn));
    return;
  }
  Shard& shard = shards_[src];
  if (at < shard.sim->now()) die_lookahead(at, src, shard.sim->now());
  // A cross-shard arrival inside the active window means the destination
  // may already be past `at`. Honest posts (at >= t + L, t no earlier
  // than the shard's EOT) always land after the window, so this is a
  // broken contract: catch it here, deterministically, instead of
  // letting a sometimes-late delivery corrupt replays.
  if (window_active_ && at <= window_end_) {
    die_in_window(at, src, dst, window_end_);
  }
  const std::uint64_t gseq =
      (static_cast<std::uint64_t>(src) << 48) | shard.next_post_seq++;
  ++shard.posts_by_dst[dst];
  shard.outbox_by_dst[dst].push_back(RemoteEvent{at, gseq, std::move(fn)});
  ++shard.outbox_count;
}

void ShardedSimulator::flush_remote() {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh.outbox_count;
  if (total == 0) {
    // No cross-shard traffic this window: skip the merge outright.
    ++merge_skips_;
    return;
  }
  // Merge per destination: each destination's insertion order under a
  // per-dst (time, global-seq) sort is the same subsequence the old
  // global sort produced, so same-tick dispatch order — and output
  // bytes — are unchanged, while untouched destinations cost nothing.
  for (unsigned dst = 0; dst < shards(); ++dst) {
    merge_buf_.clear();
    for (auto& sh : shards_) {
      auto& box = sh.outbox_by_dst[dst];
      for (auto& e : box) merge_buf_.push_back(std::move(e));
      box.clear();  // keeps capacity: steady state allocates nothing
    }
    if (merge_buf_.empty()) continue;
    std::sort(merge_buf_.begin(), merge_buf_.end(),
              [](const RemoteEvent& a, const RemoteEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.gseq < b.gseq;
              });
    Simulator& d = *shards_[dst].sim;
    for (auto& e : merge_buf_) {
      if (e.at < d.now()) die_lookahead(e.at, dst, d.now());
      d.schedule_at(e.at, std::move(e.fn));
    }
  }
  for (auto& sh : shards_) sh.outbox_count = 0;
}

std::uint64_t ShardedSimulator::run_window(SimTime t0, SimTime end,
                                           bool eot_extended) {
  const auto window_start = WallClock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    window_end_ = end;
    window_active_ = true;
    done_count_ = 0;
    ++epoch_;
  }
  cv_work_.notify_all();
  // Shard 0 runs on the coordinating thread: entity callbacks created on
  // this thread (bench clients, test closures) fire where they were made.
  const auto busy0_start = WallClock::now();
  std::uint64_t total = run_shard(*shards_[0].sim, end);
  shards_[0].window_dispatched = total;
  shards_[0].window_busy_ns = wall_ns_since(busy0_start);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_count_ == workers_.size(); });
    window_active_ = false;
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      total += shards_[s].window_dispatched;
    }
  }
  // Post-barrier: workers are parked on cv_work_, their per-window
  // numbers are stable (the barrier mutex gives happens-before), and
  // this thread is the only one touching the collector.
  const std::uint64_t wall_ns = wall_ns_since(window_start);
  std::vector<std::uint64_t> busy(shards_.size());
  std::vector<std::uint64_t> events(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    busy[s] = shards_[s].window_busy_ns;
    events[s] = shards_[s].window_dispatched;
    stats_->set_cross_row(static_cast<unsigned>(s), shards_[s].posts_by_dst);
  }
  // Drain windows run to kSimTimeMax; record where the clocks actually
  // stopped so spans stay finite for the timeline and span accounting.
  SimTime eff_end = end;
  if (end == kSimTimeMax) {
    eff_end = t0;
    for (const auto& sh : shards_) eff_end = std::max(eff_end, sh.sim->now());
  }
  stats_->record_window(t0, eff_end, lookahead_, eot_extended, wall_ns, busy,
                        events);
  return total;
}

void ShardedSimulator::worker_loop(unsigned s) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    const SimTime end = window_end_;
    lk.unlock();
    const auto busy_start = WallClock::now();
    shards_[s].window_dispatched = run_shard(*shards_[s].sim, end);
    shards_[s].window_busy_ns = wall_ns_since(busy_start);
    lk.lock();
    if (++done_count_ == workers_.size()) cv_done_.notify_one();
  }
}

std::uint64_t ShardedSimulator::run_windows(SimTime deadline, bool drain,
                                            const std::function<bool()>* stop) {
  const auto run_start = WallClock::now();
  std::uint64_t total = 0;
  flush_remote();  // posts made between runs (deployment, test setup)
  while (true) {
    if (stop != nullptr && (*stop)()) break;
    SimTime t0 = kSimTimeMax;
    for (auto& sh : shards_) {
      t0 = std::min(t0, sh.sim->next_event_time());
    }
    if (t0 == kSimTimeMax || t0 > deadline) break;
    // Window [t0, t0 + L - 1]: an event posted at local time t >= t0
    // lands at t + L > window end, so nothing posted during the window
    // can be due inside it.
    const SimDuration len = std::max<SimDuration>(1, lookahead_);
    SimTime end = deadline;
    bool eot_extended = false;
    if (lookahead_ != kSimTimeMax && deadline - t0 > len - 1) {
      end = t0 + len - 1;
      // Same safety argument anchored at the earliest possible send
      // instead of the window start: a send at t >= eot lands at
      // t + L > eot + L - 1. The floor above means a window is never
      // shorter than one lookahead; the deadline still caps it.
      const SimTime eot = min_eot();
      const SimTime eot_end =
          std::min(eot >= kSimTimeMax - len ? kSimTimeMax : eot + len - 1,
                   deadline);
      if (eot_end > end) {
        end = eot_end;
        eot_extended = true;
      }
    }
    total += run_window(t0, end, eot_extended);
    ++windows_;
    if (eot_extended) ++windows_extended_;
    flush_remote();
  }
  if (!drain && deadline != kSimTimeMax &&
      (stop == nullptr || !(*stop)())) {
    // Align every clock at the deadline (run_until semantics); nothing
    // is pending at or before it, so this dispatches no events.
    for (auto& sh : shards_) sh.sim->run_until(deadline);
  }
  stats_->add_run_wall(wall_ns_since(run_start));
  return total;
}

std::uint64_t ShardedSimulator::run() {
  if (shards() == 1) {
    const auto start = WallClock::now();
    const std::uint64_t n = shards_[0].sim->run();
    stats_->add_delegated_run(wall_ns_since(start), n);
    return n;
  }
  return run_windows(kSimTimeMax, /*drain=*/true, nullptr);
}

std::uint64_t ShardedSimulator::run_until(SimTime deadline) {
  if (shards() == 1) {
    const auto start = WallClock::now();
    const std::uint64_t n = shards_[0].sim->run_until(deadline);
    stats_->add_delegated_run(wall_ns_since(start), n);
    return n;
  }
  return run_windows(deadline, /*drain=*/false, nullptr);
}

std::uint64_t ShardedSimulator::run_until(SimTime deadline,
                                          const std::function<bool()>& stop) {
  if (shards() == 1) {
    // Same shape as the classic wait loops: step while the predicate is
    // false and time remains.
    const auto start = WallClock::now();
    Simulator& sim = *shards_[0].sim;
    std::uint64_t n = 0;
    while (!stop() && sim.now() < deadline && sim.step()) ++n;
    stats_->add_delegated_run(wall_ns_since(start), n);
    return n;
  }
  return run_windows(deadline, /*drain=*/false, &stop);
}

std::size_t ShardedSimulator::pending() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh.sim->pending() + sh.outbox_count;
  return n;
}

std::uint64_t ShardedSimulator::cross_shard_posts() const {
  // Per-source post sequences double as race-free post counters.
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.next_post_seq;
  return n;
}

std::uint64_t ShardedSimulator::events_dispatched() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh.sim->events_dispatched();
  return n;
}

}  // namespace lnic::sim
