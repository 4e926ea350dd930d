// Latency/throughput statistics used by every experiment harness.
//
// Sampler keeps raw samples (simulated latencies are cheap, counts are
// bounded by the experiment) so exact percentiles and ECDF curves can be
// reported, matching how the paper plots Figures 6 and 8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lnic {

/// Collects raw scalar samples and answers distribution queries.
class Sampler {
 public:
  void add(double v);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }

  /// Empirical CDF evaluated at the sample points: sorted (value, F(value))
  /// pairs, suitable for plotting. F is right-continuous, ends at 1.
  std::vector<std::pair<double, double>> ecdf() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Simple monotonically increasing counter with a name (Prometheus-style).
class Counter {
 public:
  explicit Counter(std::string name = {}) : name_(std::move(name)) {}
  void increment(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::uint64_t value_ = 0;
};

/// Prometheus-style bucketed histogram: cumulative counts per upper
/// bound (an implicit +Inf bucket catches everything), plus sum and
/// count — the fixed-memory companion to Sampler for metrics that must
/// render as `_bucket`/`_sum`/`_count` series.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly ascending.
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void observe(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  /// Cumulative count of observations <= bounds()[i].
  std::uint64_t cumulative(std::size_t i) const;

  /// Bucket-interpolated percentile estimate, p in [0, 100].
  double percentile(double p) const;

  /// Exponential nanosecond-latency buckets, 1 us .. ~8.6 s.
  static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Tracks a busy/idle duty cycle, e.g. CPU core utilization.
class UtilizationTracker {
 public:
  /// Records that the resource was busy for `busy` within a window.
  void add_busy(SimDuration busy) { busy_ += busy; }
  /// Fraction busy over the window [0, now].
  double utilization(SimDuration window) const {
    if (window <= 0) return 0.0;
    return static_cast<double>(busy_) / static_cast<double>(window);
  }
  SimDuration busy_time() const { return busy_; }

 private:
  SimDuration busy_ = 0;
};

}  // namespace lnic
