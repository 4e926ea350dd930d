#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lnic {

void Sampler::add(double v) {
  samples_.push_back(v);
  sorted_valid_ = false;
}

void Sampler::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Sampler::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double Sampler::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Sampler::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Sampler::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Sampler::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (sorted_.empty()) return 0.0;
  // Nearest-rank: smallest value with at least ceil(p/100 * N) samples <= it.
  const auto n = sorted_.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted_[rank - 1];
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b];
  }
  return total;
}

double Histogram::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t next = seen + buckets_[b];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside the bucket.
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : lo;
      const double frac =
          (target - static_cast<double>(seen)) /
          static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    seen = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> Histogram::default_latency_bounds() {
  // 1 us doubling to ~8.6 s, in nanoseconds: 24 buckets (+Inf implicit).
  std::vector<double> bounds;
  double b = 1e3;
  for (int i = 0; i < 24; ++i) {
    bounds.push_back(b);
    b *= 2.0;
  }
  return bounds;
}

std::vector<std::pair<double, double>> Sampler::ecdf() const {
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  const auto n = sorted_.size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Collapse duplicate x values to the highest F.
    if (!out.empty() && out.back().first == sorted_[i]) {
      out.back().second =
          static_cast<double>(i + 1) / static_cast<double>(n);
    } else {
      out.emplace_back(sorted_[i],
                       static_cast<double>(i + 1) / static_cast<double>(n));
    }
  }
  return out;
}

}  // namespace lnic
