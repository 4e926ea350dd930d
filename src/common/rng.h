// Deterministic pseudo-random number generation.
//
// Every stochastic component (dispatchers, fault injectors, workload
// generators) takes an explicit Rng so simulations replay exactly under a
// fixed seed. The generator is xoshiro256**, seeded via SplitMix64.
#pragma once

#include <cstdint>

namespace lnic {

/// SplitMix64's increment (2^64 / golden ratio).
constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output finalizer, a bijective 64-bit mix. Rng expands its
/// seed with it, and the retry paths hash (id, attempt) through it for
/// deterministic jitter that draws nothing from an Rng.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into four non-zero words.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += kSplitMixGamma;
      word = splitmix64(x);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping (Lemire); slight bias is
    // irrelevant for simulation workloads but keeps draws O(1).
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponential variate with the given mean (> 0).
  double next_exponential(double mean);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace lnic

#include <cmath>

namespace lnic {
inline double Rng::next_exponential(double mean) {
  // Avoid log(0): next_double() < 1 so 1 - u > 0.
  return -mean * std::log(1.0 - next_double());
}
}  // namespace lnic
