#include "framework/metrics.h"

#include <algorithm>
#include <sstream>

namespace lnic::framework {

std::string series_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += sorted[i].first + "=";
    for (const char c : sorted[i].second) {
      if (c == '\\' || c == ',' || c == '=') key += '\\';
      key += c;
    }
  }
  key += "}";
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, Counter(name)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return counter(series_key(name, labels));
}

double& MetricsRegistry::gauge(const std::string& name) {
  collect();
  return gauges_[name];
}

double& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return gauge(series_key(name, labels));
}

Sampler& MetricsRegistry::sampler(const std::string& name) {
  return samplers_[name];
}

Sampler& MetricsRegistry::sampler(const std::string& name,
                                  const Labels& labels) {
  return samplers_[series_key(name, labels)];
}

// Both histogram() forms look the series up first, so a Histogram and
// its bucket vector are only built for a new series.
Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  std::string key = series_key(name, labels);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::move(key), Histogram()).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      std::vector<double> bounds) {
  std::string key = series_key(name, labels);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::move(key), Histogram(std::move(bounds)))
             .first;
  }
  return it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  collect();
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         samplers_.count(name) > 0 || histograms_.count(name) > 0;
}

void MetricsRegistry::add_collector(const void* owner,
                                    std::function<void()> hook) {
  collectors_.emplace_back(owner, std::move(hook));
}

void MetricsRegistry::remove_collector(const void* owner) {
  std::erase_if(collectors_,
                [owner](const auto& entry) { return entry.first == owner; });
}

void MetricsRegistry::collect() const {
  if (collecting_) return;
  collecting_ = true;
  for (const auto& [owner, hook] : collectors_) hook();
  collecting_ = false;
}

namespace {

/// Splits a canonical series key into name and label text ("" if none).
std::pair<std::string, std::string> split_key(const std::string& key) {
  const auto brace = key.find('{');
  if (brace == std::string::npos) return {key, ""};
  std::string labels = key.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {key.substr(0, brace), labels};
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Valid exposition label block from stored `k=v,...` text (values
/// escaped as series_key() does), optionally with extra label pairs
/// appended (used for histogram `le`).
std::string label_block(const std::string& labels,
                        const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (std::size_t at = 0; at < labels.size();) {
    const auto eq = labels.find_first_of(",=", at);
    if (eq == std::string::npos || labels[eq] == ',') {  // no value: skip
      at = eq == std::string::npos ? labels.size() : eq + 1;
      continue;
    }
    std::string value;
    std::size_t end = eq + 1;
    for (; end < labels.size() && labels[end] != ','; ++end) {
      if (labels[end] == '\\' && end + 1 < labels.size()) ++end;
      value += labels[end];
    }
    if (!first) out += ",";
    first = false;
    out += labels.substr(at, eq - at) + "=\"" + escape_label_value(value) +
           "\"";
    at = end + 1;
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + escape_label_value(extra_value) + "\"";
  }
  out += "}";
  return out;
}

std::string format_value(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

std::string MetricsRegistry::render() const {
  collect();
  // One block of exposition lines per series, sorted by the series key
  // so output interleaves every metric kind in one global name order.
  std::vector<std::pair<std::string, std::string>> blocks;

  for (const auto& [key, counter] : counters_) {
    const auto [name, labels] = split_key(key);
    blocks.emplace_back(key, name + label_block(labels) + " " +
                                 std::to_string(counter.value()) + "\n");
  }
  for (const auto& [key, value] : gauges_) {
    const auto [name, labels] = split_key(key);
    blocks.emplace_back(key,
                        name + label_block(labels) + " " +
                            format_value(value) + "\n");
  }
  for (const auto& [key, sampler] : samplers_) {
    const auto [name, labels] = split_key(key);
    const std::string block = label_block(labels);
    std::ostringstream lines;
    lines << name << "_count" << block << " " << sampler.count() << "\n";
    if (!sampler.empty()) {
      lines << name << "_mean" << block << " " << format_value(sampler.mean())
            << "\n";
      lines << name << "_p50" << block << " " << format_value(sampler.median())
            << "\n";
      lines << name << "_p99" << block << " " << format_value(sampler.p99())
            << "\n";
    }
    blocks.emplace_back(key, lines.str());
  }
  for (const auto& [key, histogram] : histograms_) {
    const auto [name, labels] = split_key(key);
    std::ostringstream lines;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < histogram.bounds().size(); ++b) {
      cumulative += histogram.buckets()[b];
      lines << name << "_bucket"
            << label_block(labels, "le", format_value(histogram.bounds()[b]))
            << " " << cumulative << "\n";
    }
    lines << name << "_bucket" << label_block(labels, "le", "+Inf") << " "
          << histogram.count() << "\n";
    lines << name << "_sum" << label_block(labels) << " "
          << format_value(histogram.sum()) << "\n";
    lines << name << "_count" << label_block(labels) << " "
          << histogram.count() << "\n";
    blocks.emplace_back(key, lines.str());
  }

  std::sort(blocks.begin(), blocks.end());
  std::string out;
  for (const auto& [key, lines] : blocks) out += lines;
  return out;
}

}  // namespace lnic::framework
