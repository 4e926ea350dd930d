#include "loadgen/arrival.h"

#include <algorithm>
#include <cmath>

namespace lnic::loadgen {
namespace {

constexpr double kNsPerSec = 1e9;

/// A gap that reaches the end of simulated time is "never"
/// (kSimTimeMax); the comparison also keeps the cast in range.
SimDuration clamp_gap(double gap_ns) {
  if (!(gap_ns < static_cast<double>(kSimTimeMax))) return kSimTimeMax;
  return std::max<SimDuration>(1, static_cast<SimDuration>(gap_ns));
}

/// Constant gap. The cast matches the hand-rolled open-loop drivers this
/// class replaces (`static_cast<SimDuration>(1e9 / rate)`), so porting a
/// bench onto it is arrival-for-arrival identical.
class FixedRateArrivals final : public ArrivalProcess {
 public:
  explicit FixedRateArrivals(double rps)
      : gap_(offers_load(rps) ? clamp_gap(kNsPerSec / rps) : kSimTimeMax) {}
  SimDuration next_gap() override { return gap_; }

 private:
  SimDuration gap_;
};

class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rps, std::uint64_t seed)
      : offers_(offers_load(rps)),
        mean_gap_ns_(kNsPerSec / rps),
        rng_(seed) {}
  SimDuration next_gap() override {
    if (!offers_) return kSimTimeMax;
    return clamp_gap(rng_.next_exponential(mean_gap_ns_));
  }

 private:
  bool offers_;
  double mean_gap_ns_;
  Rng rng_;
};

/// Markov-modulated Poisson: exponential dwell in each state, Poisson
/// arrivals at the state's rate while dwelling there. A state with rate
/// 0 contributes silence for its whole dwell; with both states silent
/// the stream offers nothing.
class OnOffArrivals final : public ArrivalProcess {
 public:
  OnOffArrivals(const ArrivalSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed) {
    remaining_ns_ =
        rng_.next_exponential(static_cast<double>(spec_.mean_on));
  }

  SimDuration next_gap() override {
    if (!offers_load(spec_.rate_rps) && !offers_load(spec_.off_rate_rps)) {
      return kSimTimeMax;
    }
    double gap_ns = 0.0;
    for (;;) {
      const double rate = on_ ? spec_.rate_rps : spec_.off_rate_rps;
      if (offers_load(rate)) {
        const double candidate = rng_.next_exponential(kNsPerSec / rate);
        if (candidate <= remaining_ns_) {
          remaining_ns_ -= candidate;
          return clamp_gap(gap_ns + candidate);
        }
      }
      // No arrival before the state flips: consume the rest of the dwell
      // and draw the next one.
      gap_ns += remaining_ns_;
      on_ = !on_;
      remaining_ns_ = rng_.next_exponential(
          static_cast<double>(on_ ? spec_.mean_on : spec_.mean_off));
    }
  }

 private:
  ArrivalSpec spec_;
  Rng rng_;
  bool on_ = true;
  double remaining_ns_ = 0.0;
};

}  // namespace

bool offers_load(double rps) { return rps > 0.0 && std::isfinite(rps); }

double ArrivalSpec::mean_rate_rps() const {
  if (kind != ArrivalKind::kOnOff) return rate_rps;
  const double on = static_cast<double>(mean_on);
  const double off = static_cast<double>(mean_off);
  if (on + off <= 0.0) return rate_rps;
  return (rate_rps * on + off_rate_rps * off) / (on + off);
}

std::unique_ptr<ArrivalProcess> make_arrivals(const ArrivalSpec& spec,
                                              std::uint64_t seed) {
  switch (spec.kind) {
    case ArrivalKind::kFixedRate:
      return std::make_unique<FixedRateArrivals>(spec.rate_rps);
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(spec.rate_rps, seed);
    case ArrivalKind::kOnOff:
      return std::make_unique<OnOffArrivals>(spec, seed);
  }
  return std::make_unique<FixedRateArrivals>(spec.rate_rps);
}

}  // namespace lnic::loadgen
