// Worker health checking: periodically probes each registered worker
// with a tiny RPC; after `max_failures` consecutive timeouts the worker
// is quarantined in the gateway (skipped by the dispatcher but kept in
// every route). Quarantined workers keep being probed — the first
// successful probe reinstates them automatically, closing the
// quarantine → probe → reinstate loop without manager intervention.
// Complements the gateway's per-request failover with proactive
// detection and recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "framework/gateway.h"
#include "proto/rpc.h"
#include "sim/simulator.h"

namespace lnic::framework {

struct HealthConfig {
  SimDuration probe_interval = milliseconds(500);
  SimDuration probe_timeout = milliseconds(100);
  std::uint32_t max_failures = 3;
};

class HealthChecker {
 public:
  HealthChecker(sim::Simulator& sim, net::Network& network, Gateway& gateway,
                HealthConfig config = {});

  /// Registers a worker for probing.
  void watch(NodeId worker, net::BufferView probe_payload);

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  bool is_healthy(NodeId worker) const {
    const auto it = state_.find(worker);
    return it != state_.end() && !it->second.quarantined;
  }
  /// Workers currently quarantined by this checker.
  std::uint64_t quarantines() const { return quarantines_; }
  /// Times a quarantined worker recovered and was reinstated.
  std::uint64_t recoveries() const { return recoveries_; }

  /// Called when a worker is quarantined / reinstated.
  void set_on_dead(std::function<void(NodeId)> fn) { on_dead_ = std::move(fn); }
  void set_on_recovered(std::function<void(NodeId)> fn) {
    on_recovered_ = std::move(fn);
  }

 private:
  void probe_all();

  struct WorkerState {
    net::BufferView payload;
    std::uint32_t consecutive_failures = 0;
    bool quarantined = false;
  };

  sim::Simulator& sim_;
  Gateway& gateway_;
  HealthConfig config_;
  proto::RpcClient rpc_;
  sim::PeriodicTimer timer_;
  std::map<NodeId, WorkerState> state_;
  std::uint64_t quarantines_ = 0;
  std::uint64_t recoveries_ = 0;
  std::function<void(NodeId)> on_dead_;
  std::function<void(NodeId)> on_recovered_;
};

}  // namespace lnic::framework
