#include "sim/shard_stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/flightrec.h"

namespace lnic::sim {

ShardStatsCollector::ShardStatsCollector(unsigned shards)
    : shards_(shards == 0 ? 1 : shards),
      busy_ns_(shards_, 0),
      barrier_ns_(shards_, 0),
      events_(shards_, 0),
      cross_matrix_(static_cast<std::size_t>(shards_) * shards_, 0) {}

void ShardStatsCollector::set_outlier_threshold(double multiple) {
  if (!(multiple > 1.0)) {
    std::fprintf(stderr,
                 "ShardStatsCollector: outlier threshold must be > 1 "
                 "(got %f); 1x-mean would flag every window\n",
                 multiple);
    std::abort();
  }
  outlier_threshold_ = multiple;
}

void ShardStatsCollector::record_window(
    SimTime t0, SimTime end, SimDuration lookahead, bool eot_extended,
    std::uint64_t wall_ns, const std::vector<std::uint64_t>& busy_ns,
    const std::vector<std::uint64_t>& events) {
  // Outlier check against the mean of the windows seen so far; needs a
  // burn-in so startup jitter (cold caches, thread wake-up) doesn't page.
  if (windows_ >= 32) {
    const std::uint64_t mean = window_wall_ns_ / windows_;
    if (mean > 0 &&
        static_cast<double>(wall_ns) >
            outlier_threshold_ * static_cast<double>(mean)) {
      ++barrier_outliers_;
      flightrec::FlightRecorder::global().record(
          t0, flightrec::Kind::kBarrierOutlier, windows_, wall_ns,
          "window wall " + std::to_string(wall_ns) + " ns vs mean " +
              std::to_string(mean) + " ns");
    }
  }
  ++windows_;
  if (eot_extended) ++windows_extended_;
  window_wall_ns_ += wall_ns;
  for (unsigned s = 0; s < shards_; ++s) {
    const std::uint64_t busy = std::min(busy_ns[s], wall_ns);
    busy_ns_[s] += busy;
    barrier_ns_[s] += wall_ns - busy;
    events_[s] += events[s];
  }
  if (lookahead > 0 && lookahead != kSimTimeMax) {
    const double span = static_cast<double>(end - t0 + 1);
    // Extended windows can span far beyond the static horizon; clamp the
    // utilization contribution so the ratio stays a fraction of the
    // horizon (saturating at 1.0) while the raw span feeds the mean.
    util_span_sum_ += std::min(span, static_cast<double>(lookahead));
    horizon_sum_ += static_cast<double>(lookahead);
    span_sum_ += span;
    ++span_windows_;
  }
  ShardStats::Window record{t0, end, wall_ns, eot_extended, busy_ns};
  if (recent_.size() < kRecentCapacity) {
    recent_.push_back(std::move(record));
  } else {
    recent_[recent_head_] = std::move(record);
    recent_head_ = (recent_head_ + 1) % kRecentCapacity;
  }
}

void ShardStatsCollector::set_cross_row(
    unsigned src, const std::vector<std::uint64_t>& by_dst) {
  std::copy(by_dst.begin(), by_dst.end(),
            cross_matrix_.begin() + static_cast<std::size_t>(src) * shards_);
}

void ShardStatsCollector::add_run_wall(std::uint64_t ns) {
  total_wall_ns_ += ns;
}

void ShardStatsCollector::add_delegated_run(std::uint64_t wall_ns,
                                            std::uint64_t events) {
  total_wall_ns_ += wall_ns;
  window_wall_ns_ += wall_ns;
  busy_ns_[0] += wall_ns;
  events_[0] += events;
}

ShardStats ShardStatsCollector::snapshot() const {
  ShardStats out;
  out.shards = shards_;
  out.windows = windows_;
  out.windows_extended = windows_extended_;
  out.total_wall_ns = total_wall_ns_;
  out.window_wall_ns = window_wall_ns_;
  out.barrier_outliers = barrier_outliers_;
  out.outlier_threshold = outlier_threshold_;
  out.busy_ns = busy_ns_;
  out.barrier_ns = barrier_ns_;
  out.events = events_;
  out.cross_matrix = cross_matrix_;
  out.cross_posts.assign(shards_, 0);
  for (unsigned src = 0; src < shards_; ++src) {
    for (unsigned dst = 0; dst < shards_; ++dst) {
      out.cross_posts[src] += out.cross(src, dst);
    }
  }
  out.lookahead_utilization =
      horizon_sum_ > 0.0 ? util_span_sum_ / horizon_sum_ : 1.0;
  out.mean_window_span_ns =
      span_windows_ > 0 ? span_sum_ / static_cast<double>(span_windows_) : 0.0;
  // Unroll the ring oldest-first.
  out.recent.reserve(recent_.size());
  for (std::size_t i = 0; i < recent_.size(); ++i) {
    out.recent.push_back(
        recent_[(recent_head_ + i) % recent_.size()]);
  }
  return out;
}

std::string ShardStats::to_string() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "shard stall breakdown: %u shard(s), %llu window(s) "
                "(%llu EOT-extended), lookahead utilization %.2f, "
                "mean window span %.0f ns\n",
                shards, static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(windows_extended),
                lookahead_utilization, mean_window_span_ns);
  out += line;
  const double total_ms = static_cast<double>(total_wall_ns) / 1e6;
  const double sync_ms = static_cast<double>(sync_wall_ns()) / 1e6;
  std::snprintf(line, sizeof(line),
                "  total wall %.3f ms = windows %.3f ms + sync/merge %.3f ms "
                "(%.1f%%)\n",
                total_ms, static_cast<double>(window_wall_ns) / 1e6, sync_ms,
                total_wall_ns > 0 ? 100.0 * sync_ms / total_ms : 0.0);
  out += line;
  for (unsigned s = 0; s < shards; ++s) {
    const double busy_ms = static_cast<double>(busy_ns[s]) / 1e6;
    const double barrier_ms = static_cast<double>(barrier_ns[s]) / 1e6;
    std::snprintf(
        line, sizeof(line),
        "  shard %2u: busy %10.3f ms (%5.1f%%)  barrier %10.3f ms (%5.1f%%)  "
        "events %10llu  cross-posts %8llu\n",
        s, busy_ms, total_ms > 0 ? 100.0 * busy_ms / total_ms : 0.0,
        barrier_ms, total_ms > 0 ? 100.0 * barrier_ms / total_ms : 0.0,
        static_cast<unsigned long long>(events[s]),
        static_cast<unsigned long long>(cross_posts[s]));
    out += line;
  }
  if (shards > 1) {
    out += "  cross-shard events (src row -> dst column):\n";
    for (unsigned src = 0; src < shards; ++src) {
      std::snprintf(line, sizeof(line), "    src %2u:", src);
      out += line;
      for (unsigned dst = 0; dst < shards; ++dst) {
        std::snprintf(line, sizeof(line), " %8llu",
                      static_cast<unsigned long long>(cross(src, dst)));
        out += line;
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace lnic::sim
