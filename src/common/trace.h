// Request-scoped distributed tracing (the observability kernel behind
// §7's latency breakdowns: parse, match, lambda run, DMA, wire).
//
// A TraceRecorder collects spans — named intervals in simulated time
// with a trace id, a span id, a parent span, and key/value annotations.
// Trace ids are allocated at the gateway, carried in the lambda header
// of every packet (net::LambdaHeader::trace_id/parent_span), and
// propagated through retransmissions, fragmentation/reassembly,
// dispatch queueing, NPU-thread execution (nicsim) and host-backend
// execution (hostsim), so one request yields one connected span tree
// including every retry.
//
// Recording is pure bookkeeping outside simulated time: attaching or
// detaching a recorder never changes event order, RNG draws, or any
// simulated timestamp, so benches replay bit-identically with tracing
// on or off. A recorder attaches to a whole simulation at once
// (sim::Simulator::set_tracer), every component reaches it through the
// simulator it holds, and new_trace() samples which requests get a trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace lnic::trace {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;
constexpr TraceId kInvalidTrace = 0;
constexpr SpanId kInvalidSpan = 0;

/// The trace context carried across component boundaries (and on the
/// wire in the lambda header): which trace, and which span to parent
/// newly created spans under.
struct SpanContext {
  TraceId trace = kInvalidTrace;
  SpanId parent = kInvalidSpan;

  bool valid() const { return trace != kInvalidTrace; }
};

struct Span {
  TraceId trace = kInvalidTrace;
  SpanId id = kInvalidSpan;
  SpanId parent = kInvalidSpan;
  std::string name;
  SimTime start = 0;
  SimTime end = 0;  // == start while the span is still open
  bool open = false;
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// Critical-path decomposition of one trace: the root span's duration
/// split into named components (queue / proxy / transport / execute /
/// retransmit / other). Components always sum exactly to `total`: every
/// instant of the root interval is attributed to the deepest span
/// covering it.
struct CriticalPath {
  SimDuration total = 0;
  std::vector<std::pair<std::string, SimDuration>> components;

  SimDuration component(const std::string& name) const;
};

/// Maps a span to its critical-path component from its name prefix
/// ("gateway.queue" -> "queue", "nic.execute" -> "execute", ...).
/// Timed-out rpc attempts count as "retransmit".
std::string span_component(const Span& span);

class TraceRecorder {
 public:
  /// Caps memory for long runs: once `max_spans` spans are held, new
  /// start_span calls are dropped (and counted). `sample_rate` in [0, 1]
  /// is the fraction of new_trace() calls that get a trace.
  explicit TraceRecorder(std::size_t max_spans = 1 << 20,
                         double sample_rate = 1.0)
      : max_spans_(max_spans),
        sample_rate_(std::clamp(sample_rate, 0.0, 1.0)) {}

  /// The next trace id (a counter) for a sampled request, kInvalidTrace
  /// for one the rate skips. A Bresenham-style accumulator, not an RNG
  /// draw, picks every 1/rate-th call.
  TraceId new_trace() {
    sample_accum_ += sample_rate_;
    if (sample_accum_ >= 1.0) {
      sample_accum_ -= 1.0;
      return next_trace_++;
    }
    return kInvalidTrace;
  }

  /// Opens a span; returns its id (kInvalidSpan if dropped by the cap).
  SpanId start_span(TraceId trace, SpanId parent, std::string name,
                    SimTime now);
  /// Closes a span. Closing kInvalidSpan or an unknown id is a no-op.
  void end_span(SpanId span, SimTime now);
  void annotate(SpanId span, const std::string& key, std::string value);

  bool empty() const { return spans_.empty(); }
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  const std::vector<Span>& spans() const { return spans_; }
  /// The spans of one trace, in start order.
  std::vector<Span> trace_spans(TraceId trace) const;
  /// Every trace id with at least one span, ascending.
  std::vector<TraceId> trace_ids() const;

  /// Chrome/Perfetto trace_event JSON ({"traceEvents":[...]}; complete
  /// "X" events, ts/dur in fractional microseconds, one pid per trace,
  /// one tid per component track). Open spans export with zero
  /// duration and an "open":"true" arg.
  std::string to_chrome_json() const;

  /// Appends this recorder's spans as the bare trace_event objects that
  /// to_chrome_json wraps — lets a merged timeline share one
  /// `traceEvents` array with other event sources. `first` tracks comma
  /// placement across appends.
  void append_chrome_events(std::ostream& out, bool& first) const;

  /// Exact decomposition of `trace`'s root span (see CriticalPath).
  CriticalPath critical_path(TraceId trace) const;
  /// Human-readable critical-path table for one trace.
  std::string critical_path_summary(TraceId trace) const;

 private:
  Span* find(SpanId span);

  std::size_t max_spans_;
  double sample_rate_;
  double sample_accum_ = 0.0;
  TraceId next_trace_ = 1;
  SpanId next_span_ = 1;
  // Ids are handed out consecutively and spans_ only grows until
  // clear(), so span `id` sits at spans_[id - first_span_].
  SpanId first_span_ = 1;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace lnic::trace
