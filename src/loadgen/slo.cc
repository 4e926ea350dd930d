#include "loadgen/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

namespace lnic::loadgen {

std::uint64_t SloTracker::function_offered(const std::string& function) const {
  const auto it = functions_.find(function);
  return it == functions_.end() ? 0 : it->second.offered;
}

const Sampler* SloTracker::function_latency(
    const std::string& function) const {
  const auto it = functions_.find(function);
  return it == functions_.end() ? nullptr : &it->second.latency;
}

framework::SloSignalFn slo_signal_source(const SloTracker& tracker) {
  // Per-function high-water mark into the sampler's raw sample vector;
  // shared_ptr so the callable stays copyable (std::function requirement).
  auto consumed = std::make_shared<std::map<std::string, std::size_t>>();
  return [&tracker, consumed](const std::string& name) {
    framework::SloSignal signal;
    signal.valid = true;
    signal.offered = tracker.function_offered(name);
    const Sampler* latency = tracker.function_latency(name);
    if (latency == nullptr) return signal;
    const std::vector<double>& samples = latency->samples();
    std::size_t& from = (*consumed)[name];
    if (from < samples.size()) {
      // Nearest-rank p99 over the window [from, end), matching
      // Sampler::percentile's convention.
      std::vector<double> window(samples.begin() + from, samples.end());
      std::sort(window.begin(), window.end());
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(window.size())));
      signal.p99_ms = window[rank == 0 ? 0 : rank - 1] / 1e6;
      from = samples.size();
    }
    return signal;
  };
}

void SloTracker::on_offered(FnStats& fn) {
  ++offered_;
  ++fn.offered;
}

void SloTracker::on_complete(FnStats& fn, SimTime intended,
                             SimTime completed, bool ok) {
  if (!ok) {
    ++fn.failed;
    return;
  }
  const double intended_latency = static_cast<double>(completed - intended);
  fn.latency.add(intended_latency);
  latency_.add(intended_latency);
  ++fn.completed;
  if (completed - intended > config_.deadline) ++fn.late;
}

SloReport SloTracker::report(SimDuration window) const {
  SloReport report;
  report.deadline = config_.deadline;
  report.window = window;
  report.offered = offered_;
  const double window_sec = window > 0 ? to_sec(window) : 0.0;
  for (const auto& [name, fn] : functions_) {
    report.completed += fn.completed;
    report.failed += fn.failed;
    report.late += fn.late;
    SloReport::FnRow row;
    row.function = name;
    row.offered = fn.offered;
    row.completed = fn.completed;
    row.violations = fn.failed + fn.late;
    const std::uint64_t on_time = fn.completed - fn.late;
    row.goodput_rps =
        window_sec > 0 ? static_cast<double>(on_time) / window_sec : 0.0;
    row.p99_ms = fn.latency.empty() ? 0.0 : fn.latency.p99() / 1e6;
    report.per_function.push_back(std::move(row));
  }
  std::stable_sort(report.per_function.begin(), report.per_function.end(),
                   [](const SloReport::FnRow& a, const SloReport::FnRow& b) {
                     return a.offered > b.offered;
                   });
  if (window_sec > 0) {
    report.offered_rps = static_cast<double>(report.offered) / window_sec;
    report.goodput_rps =
        static_cast<double>(report.completed - report.late) / window_sec;
  }
  if (!latency_.empty()) {
    report.p50_ms = latency_.percentile(50.0) / 1e6;
    report.p99_ms = latency_.percentile(99.0) / 1e6;
    report.p999_ms = latency_.percentile(99.9) / 1e6;
  }
  if (report.offered > 0) {
    report.violation_fraction =
        static_cast<double>(report.failed + report.late) /
        static_cast<double>(report.offered);
  }
  return report;
}

std::string SloReport::to_string(std::size_t max_functions) const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "SLO report (deadline %.3f ms, window %.1f ms)\n",
                to_ms(deadline), to_ms(window));
  out += line;
  std::snprintf(line, sizeof(line),
                "  offered %llu (%.0f req/s)  completed %llu  failed %llu  "
                "late %llu\n",
                static_cast<unsigned long long>(offered), offered_rps,
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(late));
  out += line;
  std::snprintf(line, sizeof(line),
                "  goodput %.0f req/s  violations %.2f%%  latency p50 %.3f "
                "p99 %.3f p99.9 %.3f ms\n",
                goodput_rps, violation_fraction * 100.0, p50_ms, p99_ms,
                p999_ms);
  out += line;
  const std::size_t rows = std::min(max_functions, per_function.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const FnRow& row = per_function[i];
    std::snprintf(line, sizeof(line),
                  "  %-12s offered %8llu  goodput %8.0f req/s  "
                  "violations %6llu  p99 %9.3f ms\n",
                  row.function.c_str(),
                  static_cast<unsigned long long>(row.offered),
                  row.goodput_rps,
                  static_cast<unsigned long long>(row.violations),
                  row.p99_ms);
    out += line;
  }
  if (per_function.size() > rows) {
    std::snprintf(line, sizeof(line), "  ... %zu more function(s)\n",
                  per_function.size() - rows);
    out += line;
  }
  return out;
}

void SloTracker::export_to(framework::MetricsRegistry& registry,
                           SimDuration window) const {
  const double window_sec = window > 0 ? to_sec(window) : 0.0;
  for (const auto& [name, fn] : functions_) {
    const framework::Labels labels = {{"fn", name}};
    registry.gauge("loadgen_offered_total", labels) =
        static_cast<double>(fn.offered);
    registry.gauge("loadgen_violations_total", labels) =
        static_cast<double>(fn.failed + fn.late);
    registry.gauge("loadgen_goodput_rps", labels) =
        window_sec > 0
            ? static_cast<double>(fn.completed - fn.late) / window_sec
            : 0.0;
  }
}

}  // namespace lnic::loadgen
