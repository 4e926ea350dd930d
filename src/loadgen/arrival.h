// Open-loop arrival processes (the demand side of every scaling
// experiment). An ArrivalProcess is a deterministic stream of
// inter-arrival gaps: fixed-rate (the classic periodic driver), Poisson
// (memoryless production traffic), and a two-state on-off MMPP (bursty
// traffic — a Poisson process whose rate is modulated by an on/off
// Markov chain with exponential dwell times). All randomness comes from
// a seeded common/rng.h stream, so a (spec, seed) pair replays the exact
// same arrival sequence on every run.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/types.h"

namespace lnic::loadgen {

enum class ArrivalKind : std::uint8_t { kFixedRate, kPoisson, kOnOff };

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kFixedRate;
  /// Offered rate (req/s); the on-state rate for kOnOff.
  double rate_rps = 1000.0;
  /// Off-state rate for kOnOff (0 = silent between bursts).
  double off_rate_rps = 0.0;
  /// Mean dwell time in the on / off states (kOnOff only; exponential).
  SimDuration mean_on = milliseconds(10);
  SimDuration mean_off = milliseconds(10);

  static ArrivalSpec fixed(double rps) {
    return ArrivalSpec{ArrivalKind::kFixedRate, rps};
  }
  static ArrivalSpec poisson(double rps) {
    return ArrivalSpec{ArrivalKind::kPoisson, rps};
  }
  static ArrivalSpec on_off(double on_rps, double off_rps, SimDuration on,
                            SimDuration off) {
    return ArrivalSpec{ArrivalKind::kOnOff, on_rps, off_rps, on, off};
  }

  /// Long-run offered rate (req/s): the plain rate for fixed/Poisson,
  /// the dwell-weighted average of the two state rates for on-off.
  double mean_rate_rps() const;
};

/// A stream of inter-arrival gaps in simulated nanoseconds.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Gap from the previous arrival (or from the stream start) to the
  /// next arrival; always >= 1 ns so arrivals strictly advance time.
  /// kSimTimeMax means no further arrival: a stream without a positive
  /// finite rate offers nothing.
  virtual SimDuration next_gap() = 0;
};

/// True for a rate that offers load: positive and finite. A stream at
/// any other rate is silent.
bool offers_load(double rps);

/// Builds the process described by `spec`, seeded deterministically.
std::unique_ptr<ArrivalProcess> make_arrivals(const ArrivalSpec& spec,
                                              std::uint64_t seed);

}  // namespace lnic::loadgen
