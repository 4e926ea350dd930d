#include "framework/health.h"

namespace lnic::framework {

namespace {
/// Workload ID of the probe request (must be routable on the worker;
/// kInvalidWorkload probes are counted to the host path but still
/// elicit no response, so use a real lambda's ID: 1 is the web server).
constexpr WorkloadId kProbeWorkload = 1;
}  // namespace

HealthChecker::HealthChecker(sim::Simulator& sim, net::Network& network,
                             Gateway& gateway, HealthConfig config)
    : sim_(sim),
      gateway_(gateway),
      config_(config),
      rpc_(sim, network,
           proto::RpcConfig{.retransmit_timeout = config.probe_timeout,
                            .max_retries = 0}),
      timer_(sim, config.probe_interval, [this] { probe_all(); }) {}

void HealthChecker::watch(NodeId worker, net::BufferView probe_payload) {
  state_[worker] = WorkerState{std::move(probe_payload), 0, false};
}

void HealthChecker::probe_all() {
  // Quarantined workers are probed too: a successful probe is what
  // reinstates them.
  for (auto& [worker, state] : state_) {
    const NodeId target = worker;
    WorkerState* ws = &state;
    rpc_.call(target, kProbeWorkload, ws->payload,
              [this, target, ws](Result<proto::RpcResponse> result) {
                if (result.ok()) {
                  ws->consecutive_failures = 0;
                  if (ws->quarantined) {
                    ws->quarantined = false;
                    ++recoveries_;
                    gateway_.reinstate_worker(target);
                    if (on_recovered_) on_recovered_(target);
                  }
                  return;
                }
                if (ws->quarantined) {
                  // Still down: extend the gateway-side cooldown so the
                  // dispatcher keeps skipping it until a probe succeeds.
                  gateway_.quarantine_worker(target);
                  return;
                }
                if (++ws->consecutive_failures >= config_.max_failures) {
                  ws->quarantined = true;
                  ++quarantines_;
                  gateway_.quarantine_worker(target);
                  if (on_dead_) on_dead_(target);
                }
              });
  }
}

}  // namespace lnic::framework
