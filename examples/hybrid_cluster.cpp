// Hybrid cluster: mixed SmartNIC / bare-metal / container workers behind
// one gateway, with the workload manager deciding placement (§5, Fig. 2).
//
//   $ ./build/examples/hybrid_cluster
//
// Two deployments are shown. The standard four-lambda bundle fits the
// 16 K-word NIC instruction store, so NicFirst keeps every function
// NIC-resident. A second bundle carries a deliberately oversized web
// server; the manager spills it to the host workers while the small
// lambdas stay on the NICs, and both halves keep serving.
#include <cstdio>

#include "core/cluster.h"
#include "workloads/lambdas.h"

using namespace lnic;

namespace {

void print_placements(const framework::DeploymentRecord& record) {
  std::printf("  placement\n");
  for (const auto& placement : record.placements) {
    std::printf("    %-20s ->", placement.function.c_str());
    for (const auto& replica : placement.replicas) {
      std::printf(" node%u(%s)", replica.node,
                  backends::to_string(replica.kind));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("λ-NIC hybrid cluster: 2 SmartNIC + 1 bare-metal + 1 container "
              "worker\n\n");

  core::ClusterConfig config;
  config.worker_kinds = {
      backends::BackendKind::kLambdaNic, backends::BackendKind::kLambdaNic,
      backends::BackendKind::kBareMetal, backends::BackendKind::kContainer};

  // --- Standard bundle: everything fits the NICs. ---
  {
    core::Cluster cluster(config);
    auto record = cluster.deploy(workloads::make_standard_workloads());
    if (!record.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   record.error().message.c_str());
      return 1;
    }
    std::printf("standard bundle (fits the 16 K instruction store):\n");
    print_placements(record.value());
    cluster.wait_until_ready();
    auto web = cluster.invoke_and_wait("web_server",
                                       workloads::encode_web_request(1));
    if (!web.ok()) return 1;
    std::printf("  web_server via NIC worker: %.1f us\n\n",
                to_us(web.value().latency));
  }

  // --- Oversized web server: the manager spills it to the hosts. ---
  {
    workloads::Scale scale;
    scale.web_mix_rounds = 6000;  // ~5x the standard web lambda
    core::Cluster cluster(config);
    auto record = cluster.deploy(workloads::make_standard_workloads(scale));
    if (!record.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   record.error().message.c_str());
      return 1;
    }
    std::printf("oversized web server (exceeds the NIC store):\n");
    print_placements(record.value());
    cluster.wait_until_ready();
    auto web = cluster.invoke_and_wait("web_server",
                                       workloads::encode_web_request(1));
    auto kv = cluster.invoke_and_wait("kv_client_get",
                                      workloads::encode_kv_request(3));
    if (!web.ok() || !kv.ok()) return 1;
    std::printf("  web_server via host worker: %.1f us\n"
                "  kv_client_get via NIC worker: %.1f us\n",
                to_us(web.value().latency), to_us(kv.value().latency));
  }
  return 0;
}
