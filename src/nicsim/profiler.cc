#include "nicsim/profiler.h"

#include <algorithm>

namespace lnic::nicsim {

void NpuProfiler::on_dispatch(std::uint32_t thread, WorkloadId workload,
                              SimTime now) {
  if (thread >= threads()) return;
  busy_since_[thread] = now;
  busy_workload_[thread] = workload;
  ++lambda_dispatches_[workload];
}

void NpuProfiler::on_release(std::uint32_t thread, SimTime now) {
  if (thread >= threads()) return;
  if (busy_since_[thread] < 0) return;  // spurious release
  const SimTime start = busy_since_[thread];
  const WorkloadId workload = busy_workload_[thread];
  busy_since_[thread] = -1;
  busy_workload_[thread] = kInvalidWorkload;
  thread_busy_[thread] += now - start;
  lambda_busy_[workload] += now - start;
  timelines_[thread].push(Interval{start, now, workload});
}

void NpuProfiler::on_queue_depth(SimTime now, std::uint64_t depth) {
  peak_depth_ = std::max(peak_depth_, depth);
  depth_samples_.push(DepthSample{now, depth});
}

SimDuration NpuProfiler::thread_busy_ns(std::uint32_t thread,
                                        SimTime now) const {
  if (thread >= threads()) return 0;
  SimDuration busy = thread_busy_[thread];
  if (busy_since_[thread] >= 0) busy += now - busy_since_[thread];
  return busy;
}

SimDuration NpuProfiler::core_busy_ns(std::uint32_t core, SimTime now) const {
  SimDuration busy = 0;
  const std::uint32_t begin = core * threads_per_core_;
  const std::uint32_t end = std::min(begin + threads_per_core_, threads());
  for (std::uint32_t t = begin; t < end; ++t) busy += thread_busy_ns(t, now);
  return busy;
}

double NpuProfiler::grid_utilization(SimTime now) const {
  if (now <= 0 || threads() == 0) return 0.0;
  SimDuration busy = 0;
  for (std::uint32_t t = 0; t < threads(); ++t) busy += thread_busy_ns(t, now);
  return static_cast<double>(busy) /
         (static_cast<double>(now) * static_cast<double>(threads()));
}

SimDuration NpuProfiler::lambda_busy_ns(WorkloadId workload) const {
  const auto it = lambda_busy_.find(workload);
  return it == lambda_busy_.end() ? 0 : it->second;
}

std::uint64_t NpuProfiler::lambda_dispatches(WorkloadId workload) const {
  const auto it = lambda_dispatches_.find(workload);
  return it == lambda_dispatches_.end() ? 0 : it->second;
}

}  // namespace lnic::nicsim
