// Ablation (§4.2.1 D1): the NIC's shipped work-conserving uniform
// dispatcher versus λ-NIC's weighted-fair-queuing across workloads.
//
// Two tenants saturate a deliberately small card with equal offered
// load; tenant A holds WFQ weight 3, tenant B weight 1. Under uniform
// FIFO dispatch both get ~50% of the card; under WFQ completions track
// the 3:1 weights — the mechanism λ-NIC uses to route requests between
// threads (§4.2.1).
#include <cstdio>
#include <functional>

#include "bench/harness.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct Shares {
  double share_a = 0.0;
  double p99_a_ms = 0.0;
  double p99_b_ms = 0.0;
};

Shares run(nicsim::DispatchPolicy policy) {
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::NicConfig config = backends::lambda_nic_config();
  config.islands = 1;
  config.cores_per_island = 3;
  config.reserved_cores = 2;  // one lambda core
  config.threads_per_core = 4;
  config.dispatch = policy;
  config.max_queue_depth = 1u << 20;
  nicsim::SmartNic nic(sim, network, config);
  nic.set_drr_weights({{1, 3}, {2, 1}});

  auto bundle = workloads::make_web_farm(2);
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  if (!compiled.ok()) return {};
  (void)nic.deploy(std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value()));
  sim.run_until(seconds(16));

  proto::RpcConfig rpc;
  rpc.retransmit_timeout = seconds(600);
  proto::RpcClient client(sim, network, rpc);

  std::uint64_t done[2] = {0, 0};
  Sampler lat[2];
  // Unbounded closed-loop senders; both tenants stay backlogged for the
  // whole measurement window.
  std::function<void(int)> issue = [&](int t) {
    client.call(nic.node(), static_cast<WorkloadId>(t + 1),
                workloads::encode_web_request(0),
                [&, t](Result<proto::RpcResponse> r) {
                  if (r.ok()) {
                    ++done[t];
                    lat[t].add(static_cast<double>(r.value().latency));
                  }
                  issue(t);
                });
  };
  for (int c = 0; c < 48; ++c) issue(0);
  for (int c = 0; c < 48; ++c) issue(1);

  sim.run_until(sim.now() + seconds(1));
  Shares s;
  s.share_a = static_cast<double>(done[0]) /
              static_cast<double>(done[0] + done[1]);
  s.p99_a_ms = lat[0].p99() / 1e6;
  s.p99_b_ms = lat[1].p99() / 1e6;
  return s;
}

}  // namespace

int main() {
  print_header("Ablation: uniform dispatch vs WFQ (weights 3:1, saturated)");
  const Shares uniform = run(nicsim::DispatchPolicy::kUniformRandom);
  const Shares wfq = run(nicsim::DispatchPolicy::kWfq);
  std::printf("\n  %-18s %14s %12s %12s\n", "policy", "tenant-A share",
              "A p99", "B p99");
  std::printf("  %-18s %13.1f%% %10.3fms %10.3fms\n", "uniform (shipped)",
              uniform.share_a * 100, uniform.p99_a_ms, uniform.p99_b_ms);
  std::printf("  %-18s %13.1f%% %10.3fms %10.3fms\n", "wfq (D1)",
              wfq.share_a * 100, wfq.p99_a_ms, wfq.p99_b_ms);
  std::printf("\n  WFQ tracks the 3:1 weights (75%% / 25%%); uniform FIFO "
              "splits the card evenly regardless of weights.\n");
  return 0;
}
