// Autoscaler (§6.1.1: OpenFaaS "includes an autoscaler to scale lambdas
// as demands change"). Periodically inspects per-function demand and asks
// a provisioning callback to add or remove worker replicas.
//
// Two signals drive the loop:
//  - arrival rate, from the gateway's labeled gateway_requests_total
//    series (and, when a signal source is attached, the offered count —
//    which keeps counting even when a scaled-to-zero function has no
//    route and the gateway rejects requests as unroutable);
//  - tail latency, from an attached SLO signal (loadgen::SloTracker
//    windows via loadgen::slo_signal_source): when the window p99
//    exceeds target_p99_ms the scaler grows the replica set even if raw
//    rps alone would not justify it.
//
// Scale-up acts immediately; scale-down requires `scale_down_evals`
// consecutive under-target evaluations AND `scale_down_cooldown` since
// the last scale event — the hysteresis that keeps a bursty tenant from
// flapping between sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "framework/gateway.h"
#include "sim/simulator.h"

namespace lnic::framework {

struct AutoscalerConfig {
  SimDuration evaluation_period = seconds(1);
  double target_rps_per_replica = 500.0;
  /// SLO target for the latency signal; 0 disables it (rate-only).
  double target_p99_ms = 0.0;
  /// 0 enables scale-to-zero: an idle function releases every replica
  /// and is re-provisioned on the first offered request the signal sees.
  std::uint32_t min_replicas = 1;
  std::uint32_t max_replicas = 8;
  /// Consecutive below-target evaluations required before shrinking.
  std::uint32_t scale_down_evals = 3;
  /// Minimum time since the last scale event before shrinking.
  SimDuration scale_down_cooldown = seconds(5);
};

/// provision(name, desired_replicas) — the embedder adds/removes workers
/// and updates gateway routes.
using ProvisionFn =
    std::function<void(const std::string& name, std::uint32_t replicas)>;

/// One reading of an external SLO tracker for a function. `offered` is
/// cumulative (the autoscaler differences successive readings); `p99_ms`
/// covers the samples since the previous reading.
struct SloSignal {
  bool valid = false;
  double p99_ms = 0.0;
  std::uint64_t offered = 0;
};

/// Per-function signal source (see loadgen::slo_signal_source). Invalid
/// signals fall back to the gateway-counter path.
using SloSignalFn = std::function<SloSignal(const std::string& name)>;

class Autoscaler {
 public:
  Autoscaler(sim::Simulator& sim, Gateway& gateway, AutoscalerConfig config,
             ProvisionFn provision);

  /// Starts managing a function: provisions min_replicas immediately
  /// (instead of silently assuming they exist) and evaluates it on every
  /// tick once start() runs.
  void track(const std::string& function_name);
  /// Attaches (nullptr detaches) the per-function SLO signal source.
  void set_signal(SloSignalFn signal) { signal_ = std::move(signal); }

  void start();
  void stop() { timer_.stop(); }

  std::uint32_t replicas(const std::string& name) const {
    const auto it = functions_.find(name);
    return it == functions_.end() ? 0 : it->second.replicas;
  }
  std::uint64_t scale_events() const { return scale_events_; }

 private:
  struct FnState {
    std::uint32_t replicas = 0;
    std::uint64_t last_count = 0;    // gateway_requests_total at last tick
    std::uint64_t last_offered = 0;  // signal offered count at last tick
    std::uint32_t low_evals = 0;     // consecutive below-target ticks
    SimTime last_scale_at = 0;
  };

  void evaluate();
  void scale_to(const std::string& name, FnState& state,
                std::uint32_t desired);

  sim::Simulator& sim_;
  Gateway& gateway_;
  AutoscalerConfig config_;
  ProvisionFn provision_;
  SloSignalFn signal_;
  sim::PeriodicTimer timer_;
  std::map<std::string, FnState> functions_;
  std::uint64_t scale_events_ = 0;
};

}  // namespace lnic::framework
