// Multi-tenant API backend (§6.2a): several tenants' web-server lambdas
// share one SmartNIC. One tenant floods the card; weighted fair queuing
// (§4.2.1 D1) keeps the others' latency bounded.
//
//   $ ./build/examples/multi_tenant_web
#include <cstdio>
#include <functional>

#include "backends/backend.h"
#include "compiler/pipeline.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "nicsim/nic.h"
#include "proto/rpc.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

using namespace lnic;

namespace {

struct TenantStats {
  Sampler latency;
  std::uint64_t completed = 0;
};

void run(nicsim::DispatchPolicy policy) {
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::NicConfig config = backends::lambda_nic_config();
  config.islands = 1;  // small card so the flood bites
  config.cores_per_island = 3;
  config.reserved_cores = 2;
  config.threads_per_core = 2;
  config.dispatch = policy;
  config.max_queue_depth = 1u << 20;
  nicsim::SmartNic nic(sim, network, config);
  nic.set_drr_weights({{1, 1}, {2, 1}, {3, 1}});

  auto bundle = workloads::make_web_farm(3);
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  if (!compiled.ok()) return;
  (void)nic.deploy(std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value()));
  sim.run_until(seconds(16));

  proto::RpcConfig rpc;
  rpc.retransmit_timeout = seconds(600);
  proto::RpcClient client(sim, network, rpc);

  TenantStats tenants[3];
  // Tenant 1 floods with 64 closed-loop senders; tenants 2 and 3 each
  // run 2 polite senders.
  std::function<void(int)> issue = [&](int t) {
    client.call(nic.node(), static_cast<WorkloadId>(t + 1),
                workloads::encode_web_request(0),
                [&, t](Result<proto::RpcResponse> r) {
                  if (r.ok()) {
                    tenants[t].latency.add(
                        static_cast<double>(r.value().latency));
                    ++tenants[t].completed;
                  }
                  issue(t);
                });
  };
  for (int c = 0; c < 64; ++c) issue(0);
  for (int c = 0; c < 2; ++c) issue(1);
  for (int c = 0; c < 2; ++c) issue(2);

  sim.run_until(sim.now() + seconds(2));

  std::printf("%s dispatch:\n",
              policy == nicsim::DispatchPolicy::kWfq ? "WFQ" : "uniform");
  for (int t = 0; t < 3; ++t) {
    std::printf("  tenant %d (%s): %8llu done, p99 latency %8.3f ms\n", t + 1,
                t == 0 ? "flooder" : "polite ",
                static_cast<unsigned long long>(tenants[t].completed),
                tenants[t].latency.p99() / 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Multi-tenant web serving on one SmartNIC\n\n");
  run(nicsim::DispatchPolicy::kUniformRandom);
  run(nicsim::DispatchPolicy::kWfq);
  std::printf("WFQ (D1) holds the polite tenants' tail latency while the\n"
              "flooding tenant saturates the card.\n");
  return 0;
}
