#include "framework/autoscaler.h"

#include <algorithm>
#include <cmath>

namespace lnic::framework {

Autoscaler::Autoscaler(sim::Simulator& sim, Gateway& gateway,
                       AutoscalerConfig config, ProvisionFn provision)
    : sim_(sim),
      gateway_(gateway),
      config_(config),
      provision_(std::move(provision)),
      timer_(sim, config.evaluation_period, [this] { evaluate(); }) {}

void Autoscaler::track(const std::string& function_name) {
  const auto [it, inserted] = functions_.emplace(function_name, FnState{});
  if (!inserted) return;
  // Provision the floor right away: before this, min_replicas was a
  // bookkeeping fiction the embedder had to satisfy out of band.
  it->second.replicas = config_.min_replicas;
  it->second.last_scale_at = sim_.now();
  if (provision_) provision_(function_name, config_.min_replicas);
}

void Autoscaler::start() { timer_.start(); }

void Autoscaler::scale_to(const std::string& name, FnState& state,
                          std::uint32_t desired) {
  state.replicas = desired;
  state.low_evals = 0;
  state.last_scale_at = sim_.now();
  ++scale_events_;
  if (provision_) provision_(name, desired);
}

void Autoscaler::evaluate() {
  const double period_sec = to_sec(config_.evaluation_period);
  for (auto& [name, state] : functions_) {
    // The labeled-series API addresses the exact series the gateway
    // writes (including the tenant label on tenant routes); the old
    // hand-concatenated "{fn=...}" string could silently drift from the
    // registry's canonical naming.
    const std::uint64_t total =
        gateway_.metrics()
            .counter("gateway_requests_total", gateway_.metric_labels(name))
            .value();
    std::uint64_t demand = total - state.last_count;
    state.last_count = total;

    SloSignal signal;
    if (signal_) signal = signal_(name);
    if (signal.valid) {
      // Offered demand keeps counting while the function is scaled to
      // zero and the gateway rejects everything as unroutable — it is
      // the wake-up signal for scale-from-zero.
      const std::uint64_t offered = signal.offered - state.last_offered;
      state.last_offered = signal.offered;
      demand = std::max(demand, offered);
    }

    const double rps = static_cast<double>(demand) / period_sec;
    std::uint32_t desired = static_cast<std::uint32_t>(
        std::ceil(rps / config_.target_rps_per_replica));
    // Latency signal: a window p99 over target means the current set is
    // too small regardless of what raw rps claims.
    if (signal.valid && config_.target_p99_ms > 0.0 && demand > 0 &&
        signal.p99_ms > config_.target_p99_ms) {
      desired = std::max(desired, state.replicas + 1);
    }
    desired = std::clamp(desired, config_.min_replicas, config_.max_replicas);

    if (desired > state.replicas) {
      // Scale-up is immediate: under-provisioning costs SLO violations.
      scale_to(name, state, desired);
    } else if (desired < state.replicas) {
      // Scale-down hysteresis: require a streak of quiet evaluations and
      // a cooldown since the last scale event before releasing capacity.
      ++state.low_evals;
      if (state.low_evals >= config_.scale_down_evals &&
          sim_.now() - state.last_scale_at >= config_.scale_down_cooldown) {
        scale_to(name, state, desired);
      }
    } else {
      state.low_evals = 0;
    }
  }
}

}  // namespace lnic::framework
