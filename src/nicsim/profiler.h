// NPU-grid profiler: per-core/per-thread busy timelines, dispatch-queue
// depth sampling, and per-lambda attribution for the SmartNic model.
//
// Off-path SmartNIC studies (arXiv:2402.03041, SuperNIC) show per-stage
// and per-core attribution is what makes NIC performance debuggable;
// this is that layer for the simulated Netronome grid. The profiler is
// pure bookkeeping in simulated time — enabling it never changes
// dispatch order, RNG draws, or any timestamp — and it is off by
// default (SmartNic::enable_profiler()).
//
// Memory is bounded: busy timelines and queue-depth samples are
// BoundedRings of the most recent `max_samples` entries; cumulative
// busy/request totals are exact for the whole run.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/ring.h"
#include "common/types.h"

namespace lnic::nicsim {

class NpuProfiler {
 public:
  struct Interval {
    SimTime start = 0;
    SimTime end = 0;
    WorkloadId workload = kInvalidWorkload;
  };

  struct DepthSample {
    SimTime time = 0;
    std::uint64_t depth = 0;
  };

  NpuProfiler(std::uint32_t threads, std::uint32_t threads_per_core,
              std::size_t max_samples = 4096)
      : threads_per_core_(threads_per_core),
        busy_since_(threads, -1),
        busy_workload_(threads, kInvalidWorkload),
        thread_busy_(threads, 0),
        timelines_(threads, BoundedRing<Interval>(max_samples)),
        depth_samples_(max_samples) {}

  std::uint32_t threads() const {
    return static_cast<std::uint32_t>(thread_busy_.size());
  }
  std::uint32_t cores() const {
    return threads_per_core_ == 0
               ? 0
               : (threads() + threads_per_core_ - 1) / threads_per_core_;
  }

  /// A flight started executing on `thread`.
  void on_dispatch(std::uint32_t thread, WorkloadId workload, SimTime now);
  /// The flight occupying `thread` finished (or yielded its slot).
  void on_release(std::uint32_t thread, SimTime now);
  /// Dispatch-queue depth after an enqueue or dispatch.
  void on_queue_depth(SimTime now, std::uint64_t depth);

  /// Cumulative busy time of one thread / one core (closed intervals
  /// plus the still-open one evaluated at `now`).
  SimDuration thread_busy_ns(std::uint32_t thread, SimTime now) const;
  SimDuration core_busy_ns(std::uint32_t core, SimTime now) const;
  /// Fraction of the grid busy over [0, now].
  double grid_utilization(SimTime now) const;

  /// Cumulative per-lambda execution time and dispatch counts.
  SimDuration lambda_busy_ns(WorkloadId workload) const;
  std::uint64_t lambda_dispatches(WorkloadId workload) const;
  const std::map<WorkloadId, SimDuration>& lambda_busy() const {
    return lambda_busy_;
  }

  /// Recent busy intervals of one thread, oldest first (bounded ring).
  const BoundedRing<Interval>& timeline(std::uint32_t thread) const {
    return timelines_[thread];
  }
  const BoundedRing<DepthSample>& queue_depth_samples() const {
    return depth_samples_;
  }
  std::uint64_t peak_queue_depth() const { return peak_depth_; }

 private:
  std::uint32_t threads_per_core_;
  std::vector<SimTime> busy_since_;       // -1 = idle
  std::vector<WorkloadId> busy_workload_;
  std::vector<SimDuration> thread_busy_;
  std::vector<BoundedRing<Interval>> timelines_;
  std::map<WorkloadId, SimDuration> lambda_busy_;
  std::map<WorkloadId, std::uint64_t> lambda_dispatches_;
  BoundedRing<DepthSample> depth_samples_;
  std::uint64_t peak_depth_ = 0;
};

}  // namespace lnic::nicsim
