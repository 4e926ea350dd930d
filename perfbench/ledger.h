// The traced run's layer ledger, measured from outside the program.
//
// HostSpans records the benchmark's own spans (set-up phases, each
// Gateway::invoke, each loadgen completion, each run_until slice, the
// replays) in a trace::TraceRecorder stamped with host nanoseconds, and
// sums them by name afterwards; the recorder also exports them as Chrome
// JSON.
//
// The replays put a host time on work the simulator does inside its own
// events, where outside spans cannot reach:
//  - replay_microc re-executes the round's exact lambda invocations, one
//    per NIC execution, through proto::build_invocation and
//    microc::Machine::run/resume;
//  - replay_net sends the round's packet sizes through a fresh
//    net::Network between two benchmark-owned sink nodes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "microc/ir.h"
#include "net/trace.h"
#include "perfbench/workloads.h"

namespace lnic::perfbench {

class HostSpans {
 public:
  HostSpans();

  /// Host nanoseconds since this recorder was created.
  SimTime now() const;

  trace::SpanId open(const std::string& name, trace::SpanId parent);
  void close(trace::SpanId span) { recorder_.end_span(span, now()); }
  /// Records a span that started at `start` and ends now.
  void add(const std::string& name, trace::SpanId parent, SimTime start);

  /// Total duration (ns) of every closed span named `name`.
  std::map<std::string, SimDuration> totals() const;
  std::uint64_t dropped() const { return recorder_.dropped(); }
  std::string to_chrome_json() const { return recorder_.to_chrome_json(); }

 private:
  std::chrono::steady_clock::time_point epoch_;
  trace::TraceRecorder recorder_;
  trace::TraceId trace_;
};

struct MicrocReplay {
  std::uint64_t executions = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  SimDuration wall_ns = 0;  // inside Machine construction + run/resume
  std::uint64_t wrong = 0;  // replayed responses failing the output check
};

/// Replays `warm` once each (untimed, to rebuild global state), then
/// `calls[i]` `executions[i]` times each, on one machine state. External
/// calls are answered with the value the round's cache returned.
MicrocReplay replay_microc(const Workload& workload,
                           const microc::Program& program, NodeId src,
                           const std::vector<Call>& warm,
                           const std::vector<Call>& calls,
                           const std::vector<std::uint32_t>& executions);

/// How many times each call reached a worker: delivered copies of its
/// first request fragment from `gateway`, by RPC id. RPC ids of the
/// round's calls are consecutive in offer order, starting at the first id
/// the tracer saw. Returns an empty vector when the records do not line
/// up with `calls` (an identity failure).
std::vector<std::uint32_t> executions_per_call(
    const net::PacketTracer& tracer, NodeId gateway,
    const Workload& workload, const std::vector<Call>& calls);

struct NetReplay {
  std::uint64_t packets = 0;
  SimDuration wall_ns = 0;
};

/// Sends every non-dropped recorded packet again, same size and kind,
/// through a fresh fabric between two sink nodes.
NetReplay replay_net(const net::PacketTracer& tracer, NodeId gateway);

}  // namespace lnic::perfbench
