// Host-speed probe. The benchmark reports host times in *reference
// seconds*: the time the same work would take on this machine with
// nothing else running.
//
// Shared machines drift: a round's rate swings by ±30% over seconds as
// neighbours load the same cores, caches and memory, and thread CPU time
// swings with wall time, so it is not descheduling that could be
// subtracted. Every measured interval is therefore paired with samples of
// a fixed benchmark-owned loop taken next to and inside it. An interval
// of T host seconds during which the loop ran, on average, s times slower
// than its reference duration is reported as T / s. The loop mixes the
// simulator's kinds of work (scattered reads and writes over a 2 MiB
// table, tree updates that allocate and free, and unpredictable switch
// dispatch) and shares no code with it, so no change to the simulator
// moves the probe.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace lnic::perfbench {

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the loop once (about a millisecond) and returns its duration
  /// as a multiple of the reference duration: 1 on an idle machine,
  /// above 1 while neighbours slow this core down.
  double sample();

 private:
  std::vector<std::uint64_t> table_;
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink_ = 0;
};

/// Mean of `samples`, or 1 when there are none.
double mean_speed(const std::vector<double>& samples);

}  // namespace lnic::perfbench
