// Monitoring engine (§6.1.1: OpenFaaS includes "a Prometheus-based
// monitoring engine to analyze system state"). Periodically scrapes the
// registered backends, packet tracer and transactional stores into a
// MetricsRegistry, keeping a time series of gauges (completed requests,
// busy threads, NIC memory, kv_* counters). The gateway keeps its own
// registry.
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
  Monitor(sim::Simulator& sim, SimDuration scrape_interval = seconds(1))
      : sim_(sim),
        timer_(sim, scrape_interval, [this] { scrape(); }) {}

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

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  /// Runs one scrape immediately (also called by the timer).
  void scrape();

  MetricsRegistry& metrics() { return metrics_; }
  std::uint64_t scrapes() const { return scrapes_; }

 private:
  sim::Simulator& sim_;
  sim::PeriodicTimer timer_;
  std::vector<std::pair<std::string, backends::Backend*>> backends_;
  const net::PacketTracer* packet_tracer_ = nullptr;
  std::vector<std::pair<std::string, const kvstore::TxnStore*>> kv_stores_;
  MetricsRegistry metrics_;
  std::uint64_t scrapes_ = 0;
};

}  // namespace lnic::framework
