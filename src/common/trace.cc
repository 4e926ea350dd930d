#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

namespace lnic::trace {

SimDuration CriticalPath::component(const std::string& name) const {
  for (const auto& [component, duration] : components) {
    if (component == name) return duration;
  }
  return 0;
}

std::string span_component(const Span& span) {
  const auto has_suffix = [&span](const char* suffix) {
    const std::string_view name = span.name;
    const std::string_view want = suffix;
    return name.size() >= want.size() &&
           name.substr(name.size() - want.size()) == want;
  };
  if (has_suffix(".queue") || has_suffix(".reassemble")) return "queue";
  if (has_suffix(".proxy")) return "proxy";
  if (span.name == "rpc.attempt") {
    for (const auto& [key, value] : span.annotations) {
      if (key == "timeout" && value == "true") return "retransmit";
    }
    return "transport";
  }
  if (span.name == "rpc.call") return "transport";
  if (has_suffix(".execute") || has_suffix(".parse") ||
      has_suffix(".kernel") || has_suffix(".runtime") ||
      has_suffix(".kv_wait")) {
    return "execute";
  }
  return "other";
}

SpanId TraceRecorder::start_span(TraceId trace, SpanId parent,
                                 std::string name, SimTime now) {
  if (trace == kInvalidTrace) return kInvalidSpan;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return kInvalidSpan;
  }
  Span span;
  span.trace = trace;
  span.id = next_span_++;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  span.end = now;
  span.open = true;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceRecorder::end_span(SpanId span, SimTime now) {
  Span* s = find(span);
  if (s == nullptr) return;
  s->end = now;
  s->open = false;
}

void TraceRecorder::annotate(SpanId span, const std::string& key,
                             std::string value) {
  Span* s = find(span);
  if (s == nullptr) return;
  s->annotations.emplace_back(key, std::move(value));
}

void TraceRecorder::clear() {
  spans_.clear();
  first_span_ = next_span_;
  dropped_ = 0;
}

Span* TraceRecorder::find(SpanId span) {
  // Ids below first_span_ (kInvalidSpan included) wrap to large offsets.
  const SpanId offset = span - first_span_;
  return offset < spans_.size() ? &spans_[offset] : nullptr;
}

std::vector<Span> TraceRecorder::trace_spans(TraceId trace) const {
  std::vector<Span> out;
  for (const auto& span : spans_) {
    if (span.trace == trace) out.push_back(span);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.id < b.id;
                   });
  return out;
}

std::vector<TraceId> TraceRecorder::trace_ids() const {
  std::vector<TraceId> out;
  for (const auto& span : spans_) {
    if (std::find(out.begin(), out.end(), span.trace) == out.end()) {
      out.push_back(span.trace);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Track id for the Chrome view: one row per component location, so a
/// request reads top-down as gateway -> transport -> worker.
int track_of(const std::string& name) {
  const auto prefix = name.substr(0, name.find('.'));
  if (prefix == "request" || prefix == "gateway") return 1;
  if (prefix == "rpc") return 2;
  if (prefix == "nic") return 3;
  if (prefix == "host") return 4;
  return 5;
}

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  append_chrome_events(out, first);
  out << "]}";
  return out.str();
}

void TraceRecorder::append_chrome_events(std::ostream& out,
                                         bool& first) const {
  for (const auto& span : spans_) {
    if (!first) out << ",";
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%" PRIu64 ",\"tid\":%d,\"args\":{",
                  json_escape(span.name).c_str(), to_us(span.start),
                  to_us(span.end - span.start), span.trace,
                  track_of(span.name));
    out << buf;
    out << "\"span_id\":\"" << span.id << "\",\"parent\":\"" << span.parent
        << "\"";
    if (span.open) out << ",\"open\":\"true\"";
    for (const auto& [key, value] : span.annotations) {
      out << ",\"" << json_escape(key) << "\":\"" << json_escape(value)
          << "\"";
    }
    out << "}}";
  }
}

CriticalPath TraceRecorder::critical_path(TraceId trace) const {
  CriticalPath path;
  const std::vector<Span> spans = trace_spans(trace);
  if (spans.empty()) return path;

  // Root: the span whose parent is not part of this trace.
  std::map<SpanId, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::size_t root = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (by_id.find(spans[i].parent) == by_id.end()) {
      root = i;
      break;
    }
  }
  const SimTime lo = spans[root].start;
  const SimTime hi = spans[root].end;
  path.total = hi - lo;
  if (path.total <= 0) return path;

  // Depth of each span (root = 0), following parent links.
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int d = 0;
    SpanId cursor = spans[i].parent;
    while (d < 64) {
      const auto it = by_id.find(cursor);
      if (it == by_id.end()) break;
      ++d;
      cursor = spans[it->second].parent;
    }
    depth[i] = d;
  }

  // Sweep the root interval: each elementary segment is attributed to
  // the deepest span covering it (ties: latest start, then highest id),
  // so the per-component sums add up to the root duration exactly.
  std::vector<SimTime> cuts;
  cuts.push_back(lo);
  cuts.push_back(hi);
  for (const auto& span : spans) {
    if (span.start > lo && span.start < hi) cuts.push_back(span.start);
    if (span.end > lo && span.end < hi) cuts.push_back(span.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::map<std::string, SimDuration> sums;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const SimTime t0 = cuts[c];
    const SimTime t1 = cuts[c + 1];
    std::size_t best = root;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].start > t0 || spans[i].end < t1) continue;
      if (depth[i] > depth[best] ||
          (depth[i] == depth[best] &&
           (spans[i].start > spans[best].start ||
            (spans[i].start == spans[best].start &&
             spans[i].id > spans[best].id)))) {
        best = i;
      }
    }
    sums[span_component(spans[best])] += t1 - t0;
  }
  path.components.assign(sums.begin(), sums.end());
  return path;
}

std::string TraceRecorder::critical_path_summary(TraceId trace) const {
  const CriticalPath path = critical_path(trace);
  std::ostringstream out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "trace %llu: %.3f us end to end\n",
                static_cast<unsigned long long>(trace), to_us(path.total));
  out << buf;
  for (const auto& [component, duration] : path.components) {
    std::snprintf(buf, sizeof(buf), "  %-10s %10.3f us  %5.1f%%\n",
                  component.c_str(), to_us(duration),
                  path.total > 0
                      ? 100.0 * static_cast<double>(duration) /
                            static_cast<double>(path.total)
                      : 0.0);
    out << buf;
  }
  return out.str();
}

}  // namespace lnic::trace
