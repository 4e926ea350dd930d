// Ablation (§5 footnote 4): run-to-completion (parse+match+lambda on one
// core, as shipped) versus pipelining the parse/match stage onto
// dedicated cores. RTC is work-conserving, so with the same core budget
// it never loses: statically-partitioned parse cores become the
// bottleneck when the match stage is expensive (naive firmware) and sit
// half-idle once match reduction shrinks it. This quantifies why the
// paper ships RTC and leaves pipelining as future work.
#include <cstdio>
#include <functional>

#include "bench/harness.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct RunResult {
  double rps;
  double p99_ms;
};

RunResult run(bool pipelined, bool optimized) {
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::NicConfig config = backends::lambda_nic_config();
  config.islands = 1;
  config.cores_per_island = 6;
  config.reserved_cores = 2;      // 4 usable cores
  config.threads_per_core = 4;
  config.pipeline_stages = pipelined;
  config.parse_match_cores = 1;   // 1 of the 4 runs parse+match
  config.max_queue_depth = 1u << 20;
  nicsim::SmartNic nic(sim, network, config);

  auto bundle = workloads::make_web_farm(3);
  compiler::Options options;
  if (!optimized) options = compiler::Options::none();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas),
                                    options);
  if (!compiled.ok()) return {};
  (void)nic.deploy(std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value()));
  sim.run_until(seconds(16));

  proto::RpcConfig rpc;
  rpc.retransmit_timeout = seconds(600);
  proto::RpcClient client(sim, network, rpc);
  std::uint64_t done = 0;
  Sampler lat;
  std::function<void(int)> issue = [&](int t) {
    client.call(nic.node(), static_cast<WorkloadId>(t % 3 + 1),
                workloads::encode_web_request(0),
                [&, t](Result<proto::RpcResponse> r) {
                  if (r.ok()) {
                    ++done;
                    lat.add(static_cast<double>(r.value().latency));
                  }
                  issue(t + 1);
                });
  };
  for (int c = 0; c < 64; ++c) issue(c);
  const SimTime start = sim.now();
  sim.run_until(sim.now() + seconds(1));
  return RunResult{static_cast<double>(done) / to_sec(sim.now() - start),
                   lat.p99() / 1e6};
}

}  // namespace

int main() {
  print_header("Ablation: run-to-completion vs pipelined parse/match stage");
  std::printf("\n  %-34s %12s %10s\n", "configuration", "req/s", "p99");
  for (const bool optimized : {false, true}) {
    const RunResult rtc = run(false, optimized);
    const RunResult pipe = run(true, optimized);
    const char* fw = optimized ? "optimized fw" : "naive fw   ";
    std::printf("  RTC        (%s)             %12.0f %8.3fms\n", fw, rtc.rps,
                rtc.p99_ms);
    std::printf("  pipelined  (%s)             %12.0f %8.3fms\n", fw, pipe.rps,
                pipe.p99_ms);
  }
  std::printf("\n  RTC is work-conserving, so with equal cores it dominates: "
              "pipelining loses throughput when the dedicated parse cores "
              "bottleneck (naive firmware) and is at best neutral once match "
              "reduction shrinks the stage — consistent with the paper "
              "shipping RTC and leaving pipelining as future work (§5 fn 4).\n");
  return 0;
}
