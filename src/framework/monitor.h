// Monitoring engine (§6.1.1: OpenFaaS includes "a Prometheus-based
// monitoring engine to analyze system state"). Scrapes the registered
// backends, packet tracer and transactional stores into a
// MetricsRegistry as gauges (completed requests, busy threads, NIC
// memory, kv_* counters). The scrape is the registry's collect hook, so
// render(), gauge() and has() return values as of the call. The gateway
// keeps its own registry.
#pragma once

#include <string>
#include <vector>

#include "backends/backend.h"
#include "framework/metrics.h"
#include "kvstore/txn.h"
#include "net/trace.h"
#include "sim/simulator.h"

namespace lnic::framework {

class Monitor {
 public:
  explicit Monitor(sim::Simulator& sim) : sim_(sim) {
    metrics_.add_collector(this, [this] { scrape(); });
  }
  // The collect hook holds `this`.
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void watch_backend(const std::string& name, backends::Backend* backend) {
    backends_.emplace_back(name, backend);
  }
  /// Exports the packet-trace ring's eviction count as
  /// packet_trace_evicted_total.
  void watch_packet_tracer(const net::PacketTracer* tracer) {
    packet_tracer_ = tracer;
  }
  /// Exports a transactional store's op/txn/cache counters as labeled
  /// kv_* gauges (kv_ops_total{op=}, kv_txn_aborts_total{proto=},
  /// kv_cache_hit_ratio, ...).
  void watch_kv(const std::string& name, const kvstore::TxnStore* store) {
    kv_stores_.emplace_back(name, store);
  }

  MetricsRegistry& metrics() { return metrics_; }

 private:
  void scrape();

  sim::Simulator& sim_;
  std::vector<std::pair<std::string, backends::Backend*>> backends_;
  const net::PacketTracer* packet_tracer_ = nullptr;
  std::vector<std::pair<std::string, const kvstore::TxnStore*>> kv_stores_;
  MetricsRegistry metrics_;
  std::uint64_t scrapes_ = 0;
};

}  // namespace lnic::framework
