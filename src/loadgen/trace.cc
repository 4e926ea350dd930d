#include "loadgen/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <sstream>

#include "common/rng.h"

namespace lnic::loadgen {

namespace {
constexpr const char* kHeader = "# lnic-trace v1";
}

std::string function_name(std::size_t rank) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "fn%03zu", rank);
  return buffer;
}

std::string write_trace(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << kHeader << "\n";
  for (const TraceEvent& e : events) {
    out << e.at << ' ' << e.function << ' ' << e.payload_bytes << "\n";
  }
  return out.str();
}

bool write_trace_file(const std::string& path,
                      const std::vector<TraceEvent>& events) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_trace(events);
  return static_cast<bool>(out);
}

Result<std::vector<TraceEvent>> parse_trace(const std::string& text) {
  std::vector<TraceEvent> events;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  SimTime last = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    TraceEvent event;
    long long at = 0;
    long long bytes = 0;  // signed, so "-5" is caught rather than wrapped
    std::string extra;
    if (!(fields >> at >> event.function >> bytes) || (fields >> extra)) {
      return make_error("trace line " + std::to_string(line_no) +
                        ": expected '<timestamp_ns> <function> <bytes>'");
    }
    if (at < 0) {
      return make_error("trace line " + std::to_string(line_no) +
                        ": negative timestamp");
    }
    if (bytes < 0) {
      return make_error("trace line " + std::to_string(line_no) +
                        ": negative byte count");
    }
    event.at = static_cast<SimTime>(at);
    event.payload_bytes = static_cast<Bytes>(bytes);
    if (event.at < last) {
      return make_error("trace line " + std::to_string(line_no) +
                        ": timestamps must be non-decreasing");
    }
    last = event.at;
    events.push_back(std::move(event));
  }
  return events;
}

Result<std::vector<TraceEvent>> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return make_error("cannot open trace '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_trace(buffer.str());
}

namespace {

/// Instantaneous offered rate (req/s) at offset `t` into the trace.
double rate_at(const SynthSpec& spec, SimTime t) {
  switch (spec.pattern) {
    case SynthPattern::kConstant:
      return spec.base_rps;
    case SynthPattern::kDiurnal: {
      if (spec.period <= 0) return spec.base_rps;
      const double phase = static_cast<double>(t % spec.period) /
                           static_cast<double>(spec.period);
      const double swing = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * phase));
      return spec.base_rps + (spec.peak_rps - spec.base_rps) * swing;
    }
    case SynthPattern::kBurst: {
      if (spec.period <= 0) return spec.base_rps;
      return (t % spec.period) < spec.burst_len ? spec.peak_rps
                                                : spec.base_rps;
    }
  }
  return spec.base_rps;
}

}  // namespace

std::vector<TraceEvent> synthesize(const SynthSpec& spec) {
  std::vector<TraceEvent> events;
  const double peak = std::max(spec.base_rps, spec.peak_rps);
  if (peak <= 0.0 || spec.duration <= 0) return events;

  // Lewis-Shedler thinning: candidate arrivals at the peak rate, each
  // kept with probability rate(t)/peak — an exact non-homogeneous
  // Poisson sampler for any bounded rate profile.
  Rng arrivals(spec.seed);
  Rng payloads(spec.seed ^ 0x7061796C6F616433ull);  // independent stream
  ZipfSelector zipf(spec.functions, spec.zipf_s,
                    spec.seed ^ 0x7A6970663A736565ull);
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / peak;
  for (;;) {
    t_ns += std::max(1.0, arrivals.next_exponential(mean_gap_ns));
    const SimTime at = static_cast<SimTime>(t_ns);
    if (at >= spec.duration) break;
    if (!arrivals.next_bool(rate_at(spec, at) / peak)) continue;
    TraceEvent event;
    event.at = at;
    event.function = function_name(zipf.sample());
    event.payload_bytes = spec.payload.sample(payloads);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace lnic::loadgen
