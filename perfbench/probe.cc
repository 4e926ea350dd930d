#include "perfbench/probe.h"

#include <chrono>
#include <numeric>

namespace lnic::perfbench {

namespace {
constexpr int kSteps = 20000;
/// Roughly the loop's duration on a quiet core of the 4-core 2 GHz
/// x86-64 machine the benchmark was tuned on; it only sets the scale of
/// reported times.
constexpr double kReferenceSeconds = 1.0e-3;
}  // namespace

SpeedProbe::SpeedProbe() : table_(std::size_t{1} << 18) {
  sample();  // fill the tree and touch the table once
}

double SpeedProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  const std::size_t mask = table_.size() - 1;
  for (int i = 0; i < kSteps; ++i) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    switch (x_ >> 61) {
      case 0:
      case 1:
      case 2:
        table_[x_ & mask] += acc;
        break;
      case 3:
      case 4:
        acc += table_[(x_ >> 20) & mask];
        break;
      case 5:
        tree_[x_ & 0xFFF] += acc;
        break;
      case 6:
        tree_.erase(x_ & 0xFFF);
        break;
      default:
        acc = acc * 0x9E3779B97F4A7C15ull + (x_ >> 3);
        break;
    }
  }
  sink_ += acc;
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  return took.count() / kReferenceSeconds;
}

double mean_speed(const std::vector<double>& samples) {
  if (samples.empty()) return 1.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace lnic::perfbench
