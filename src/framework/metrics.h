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
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace lnic::framework {

/// Label set of one series, e.g. {{"fn", "kvstore"}, {"backend", "nic"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical series key: `name` alone when `labels` is empty, otherwise
/// `name{k=v,...}` with label keys sorted.
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
};

}  // namespace lnic::framework
