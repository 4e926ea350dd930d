// Prometheus-style metrics registry (the paper's baseline stack runs a
// Prometheus-based monitoring engine, §6.1.1). Counters, gauges,
// samplers and bucketed histograms are registered by name — optionally
// with labels (`rpc_latency_ns{backend="nic",fn="kvstore"}`) — and
// rendered in the text exposition format for scraping/inspection.
//
// Series are stored under a canonical key `name{k=v,...}` with label
// keys sorted, which is also what the label-less overloads accept
// directly: `counter("x_total", {{"fn", "f"}})` and the legacy
// `counter("x_total{fn=f}")` address the same series.
//
// Gauges that are cheaper to derive than to keep current (a rate over
// the whole run, say) are evaluated at scrape time: their owner adds a
// collect hook that writes them, and the registry runs every hook before
// render() and before each gauge()/has() lookup, so direct readers see
// the same values a scrape would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace lnic::framework {

/// Label set of one series, e.g. {{"fn", "kvstore"}, {"backend", "nic"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical series key: `name` alone when `labels` is empty, otherwise
/// `name{k=v,...}` with label keys sorted. `\`, `,` and `=` in values
/// are escaped with `\`, so distinct label sets never share a key.
std::string series_key(const std::string& name, const Labels& labels);

class MetricsRegistry {
 public:
  /// Returns (creating on first use) the named metric. The single-string
  /// forms accept a pre-baked series key ("x_total{fn=f}").
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, const Labels& labels);
  double& gauge(const std::string& name);
  double& gauge(const std::string& name, const Labels& labels);
  Sampler& sampler(const std::string& name);
  Sampler& sampler(const std::string& name, const Labels& labels);
  /// Histograms use Histogram::default_latency_bounds() unless the
  /// series' first use passes explicit bounds.
  Histogram& histogram(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels,
                       std::vector<double> bounds);

  bool has(const std::string& name) const;

  /// Adds `owner`'s collect hook, which writes its scrape-time gauges.
  /// The owner must remove it before the owner or the registry dies.
  void add_collector(const void* owner, std::function<void()> hook);
  void remove_collector(const void* owner);
  /// Runs every collect hook once. A hook's own lookups do not re-enter.
  void collect() const;

  /// Text exposition, globally name-sorted (series of every kind
  /// interleave in one deterministic lexicographic order). Counters and
  /// gauges render one `name{labels} value` line; samplers expand to
  /// _count/_mean/_p50/_p99 series; histograms to the Prometheus
  /// _bucket{le=...}/_sum/_count series.
  std::string render() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Sampler> samplers_;
  std::map<std::string, Histogram> histograms_;
  std::vector<std::pair<const void*, std::function<void()>>> collectors_;
  mutable bool collecting_ = false;
};

}  // namespace lnic::framework
