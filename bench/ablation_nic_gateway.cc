// Ablation (§7 "Accelerating other forms of workloads"): "λ-NIC can
// provide strict bounds on tail latency and throughput, by running the
// gateway directly on a SmartNIC."
//
// Compares the framework gateway as (a) the testbed's single Go process
// (one serialized ~17 us proxy stage — the Table 2 bottleneck) versus
// (b) a gateway lambda on a SmartNIC: ~2 us of NPU work with hundreds of
// threads, so proxying parallelizes. Backend workers are λ-NIC in both
// cases; only the gateway placement changes.
#include <cstdio>
#include <functional>

#include "bench/harness.h"
#include "sim/resource.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct RunResult {
  double rps;
  double mean_added_ms;  // gateway entry -> backend send
};

RunResult run(bool nic_gateway, std::uint32_t senders, std::uint64_t total) {
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::SmartNic nic(sim, network, backends::lambda_nic_config());
  kvstore::CacheServer cache(sim, network);
  nic.set_kv_server(cache.node());
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  if (!compiled.ok()) return {};
  (void)nic.deploy(std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value()));
  sim.run_until(seconds(16));

  proto::RpcConfig rpc;
  rpc.retransmit_timeout = seconds(600);
  proto::RpcClient client(sim, network, rpc);

  // Gateway stage: host = 1 server x 17 us; NIC = 384 threads x 2 us.
  const std::uint32_t gw_units = nic_gateway ? 384 : 1;
  const SimDuration gw_service =
      nic_gateway ? microseconds(2) : microseconds(17);
  sim::ServerPool gateway(sim, gw_units);

  std::uint64_t issued = 0, completed = 0;
  Sampler added;
  std::function<void()> issue = [&]() {
    if (issued >= total) return;
    const std::uint64_t i = issued++;
    const SimTime entered = sim.now();
    gateway.submit(gw_service, [&, i, entered]() {
      added.add(static_cast<double>(sim.now() - entered));
      client.call(nic.node(), workloads::kWebServerId,
                  workloads::encode_web_request(i & 3),
                  [&](Result<proto::RpcResponse>) {
                    ++completed;
                    issue();
                  });
    });
  };
  const SimTime start = sim.now();
  for (std::uint32_t c = 0; c < senders; ++c) issue();
  sim.run();
  return RunResult{static_cast<double>(completed) / to_sec(sim.now() - start),
                   added.mean() / 1e6};
}

}  // namespace

int main() {
  print_header("Ablation: gateway on the host vs on a SmartNIC (§7)");
  std::printf("\n  %-26s %12s %16s\n", "gateway placement", "req/s",
              "gw delay (mean)");
  for (const std::uint32_t senders : {56u, 224u}) {
    const RunResult host = run(false, senders, 40000);
    const RunResult nic = run(true, senders, 40000);
    std::printf("  host Go process @%3u snd %12.0f %13.3f ms\n", senders,
                host.rps, host.mean_added_ms);
    std::printf("  SmartNIC lambda @%3u snd %12.0f %13.3f ms\n", senders,
                nic.rps, nic.mean_added_ms);
  }
  std::printf("\n  The serialized host gateway caps the system at ~58k req/s "
              "and its queue grows with offered load; the NIC-resident "
              "gateway proxies in parallel, pushing the bottleneck back to "
              "the workers.\n");
  return 0;
}
