// Ablation (§7 "Hot swapping workloads"): requests lost while deploying
// a new lambda, with today's full-firmware reload versus the hitless
// update the paper anticipates from next-generation NICs.
#include <cstdio>
#include <functional>

#include "bench/harness.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct Outcome {
  std::uint64_t dropped;
  std::uint64_t completed;
};

Outcome run(bool hot_swap) {
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::NicConfig config = backends::lambda_nic_config();
  config.allow_hot_swap = hot_swap;
  nicsim::SmartNic nic(sim, network, config);
  kvstore::CacheServer cache(sim, network);
  nic.set_kv_server(cache.node());

  auto deploy = [&]() {
    auto bundle = workloads::make_standard_workloads();
    auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
    (void)nic.deploy(std::make_shared<const compiler::CompileOutput>(
        std::move(compiled).value()));
  };
  deploy();
  sim.run_until(seconds(16));

  proto::RpcConfig rpc;
  rpc.max_retries = 0;  // count raw losses, no retransmission mask
  rpc.retransmit_timeout = seconds(30);
  proto::RpcClient client(sim, network, rpc);

  // Steady 2,000 rps of web traffic for 20 s; redeploy at t=5 s.
  std::uint64_t i = 0;
  sim::PeriodicTimer load(sim, microseconds(500), [&] {
    client.call(nic.node(), workloads::kWebServerId,
                workloads::encode_web_request(i++ & 3), nullptr);
  });
  load.start();
  sim.schedule(seconds(5), deploy);
  sim.run_until(sim.now() + seconds(20));
  load.stop();
  sim.run_until(sim.now() + seconds(31));

  return Outcome{nic.stats().requests_dropped_down,
                 nic.stats().requests_completed};
}

}  // namespace

int main() {
  print_header("Ablation: firmware reload downtime vs hitless update (§7)");
  const Outcome reload = run(false);
  const Outcome hitless = run(true);
  std::printf("\n  %-26s %12s %12s\n", "mode", "completed", "dropped");
  std::printf("  %-26s %12llu %12llu\n", "full reload (today)",
              static_cast<unsigned long long>(reload.completed),
              static_cast<unsigned long long>(reload.dropped));
  std::printf("  %-26s %12llu %12llu\n", "hitless update (future)",
              static_cast<unsigned long long>(hitless.completed),
              static_cast<unsigned long long>(hitless.dropped));
  std::printf("\n  A redeploy today blacks the card out for 15 s "
              "(~30k requests at 2k rps); hitless updates lose none.\n");
  return 0;
}
