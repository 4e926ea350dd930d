// Unified Perfetto timeline: one trace_event JSON merging two event
// sources that previously exported separately (or not at all):
//
//   - TraceRecorder request spans — one Perfetto process per trace id,
//     component tracks (gateway/rpc/nic/host), tenant ids in args;
//   - NPU-grid busy intervals from each NIC's NpuProfiler — one process
//     per NIC, one track per NPU thread, spans named w<workload> and
//     annotated with the owning tenant.
//
// Everything shares the simulated-time x-axis (ts/dur in microseconds,
// matching TraceRecorder::to_chrome_json), so "what was the grid doing
// while this request queued?" is one screen in the Perfetto UI instead
// of two exports.
#pragma once

#include <string>
#include <vector>

#include "common/trace.h"
#include "nicsim/nic.h"

namespace lnic::framework {

/// Synthetic Perfetto pid of the first NIC process. Trace spans use
/// pid = trace id (small counters); NIC pids sit far above any trace id
/// a run can allocate.
constexpr std::uint64_t kTimelineNicPidBase = (1ull << 40) + 1;

struct TimelineInputs {
  /// Request spans (may be nullptr — e.g. a metrics-only run).
  const trace::TraceRecorder* tracer = nullptr;
  /// Named NICs whose profilers contribute NPU busy tracks; NICs with a
  /// disabled profiler are skipped.
  std::vector<std::pair<std::string, const nicsim::SmartNic*>> nics;
};

/// Renders the merged timeline as Chrome/Perfetto trace_event JSON.
std::string export_timeline(const TimelineInputs& inputs);

}  // namespace lnic::framework
