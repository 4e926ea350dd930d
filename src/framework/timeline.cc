#include "framework/timeline.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace lnic::framework {

namespace {

void append_meta(std::ostream& out, bool& first, std::uint64_t pid,
                 std::int64_t tid, const char* what, const std::string& name) {
  if (!first) out << ",";
  first = false;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%" PRIu64
                ",\"tid\":%" PRId64 ",\"args\":{\"name\":\"%s\"}}",
                what, pid, tid, name.c_str());
  out << buf;
}

void append_span_open(std::ostream& out, bool& first, const char* name,
                      double ts_us, double dur_us, std::uint64_t pid,
                      std::int64_t tid) {
  if (!first) out << ",";
  first = false;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":%" PRIu64 ",\"tid\":%" PRId64 ",\"args\":{",
                name, ts_us, dur_us, pid, tid);
  out << buf;
}

}  // namespace

std::string export_timeline(const TimelineInputs& inputs) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;

  // Request spans, exactly as lnicctl trace exports them (tenant ids
  // ride along in args via span annotations).
  if (inputs.tracer != nullptr) {
    inputs.tracer->append_chrome_events(out, first);
  }

  // NPU-grid busy tracks: one process per NIC, one thread row per NPU
  // thread, each closed busy interval a span named after its workload.
  std::uint64_t nic_pid = kTimelineNicPidBase;
  for (const auto& [name, nic] : inputs.nics) {
    const nicsim::NpuProfiler* profiler =
        nic == nullptr ? nullptr : nic->profiler();
    if (profiler == nullptr) continue;
    append_meta(out, first, nic_pid, 0, "process_name", "nic:" + name);
    for (std::uint32_t t = 0; t < profiler->threads(); ++t) {
      append_meta(out, first, nic_pid, t, "thread_name",
                  "npu " + std::to_string(t));
      for (const auto& iv : profiler->timeline(t)) {
        std::string span = "w";
        span += std::to_string(iv.workload);
        append_span_open(out, first, span.c_str(), to_us(iv.start),
                         to_us(iv.end - iv.start), nic_pid, t);
        out << "\"workload\":\"" << iv.workload << "\"";
        const TenantId tenant = nic->tenant_of(iv.workload);
        if (tenant != kDefaultTenant) {
          out << ",\"tenant\":\"" << tenant << "\"";
        }
        out << "}}";
      }
    }
    ++nic_pid;
  }

  out << "]}";
  return out.str();
}

}  // namespace lnic::framework
