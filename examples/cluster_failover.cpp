// Framework fault tolerance: the etcd (Raft) store that holds lambda
// routes survives the loss of its leader (§6.1.1), and the gateway keeps
// serving from its watched route table throughout.
//
//   $ ./build/examples/cluster_failover
#include <cstdio>

#include "core/cluster.h"
#include "workloads/lambdas.h"

using namespace lnic;

namespace {

bool ping(core::Cluster& cluster, const char* when) {
  auto r = cluster.invoke_and_wait("web_server",
                                   workloads::encode_web_request(0));
  std::printf("  [%-22s] web_server -> %s (%.1f us)\n", when,
              r.ok() ? "ok" : r.error().message.c_str(),
              r.ok() ? to_us(r.value().latency) : 0.0);
  return r.ok();
}

}  // namespace

int main() {
  std::printf("etcd/Raft failover under live traffic\n\n");

  core::ClusterConfig config;
  config.etcd_nodes = 5;
  core::Cluster cluster(config);
  if (!cluster.deploy(workloads::make_standard_workloads()).ok()) return 1;
  cluster.wait_until_ready();

  if (!ping(cluster, "steady state")) return 1;

  raft::RaftNode* leader = cluster.etcd()->cluster().leader();
  if (leader == nullptr) return 1;
  std::printf("\n  killing etcd leader (node %u, term %llu)...\n",
              leader->index(),
              static_cast<unsigned long long>(leader->current_term()));
  leader->stop();

  // Requests keep flowing: routing state is already synced to the
  // gateway; consensus re-forms in the background.
  if (!ping(cluster, "during re-election")) return 1;
  cluster.sim().run_until(cluster.sim().now() + seconds(3));

  raft::RaftNode* new_leader = cluster.etcd()->cluster().leader();
  if (new_leader == nullptr) {
    std::printf("  no new leader elected!\n");
    return 1;
  }
  std::printf("  new leader: node %u, term %llu\n", new_leader->index(),
              static_cast<unsigned long long>(new_leader->current_term()));

  // Route updates still commit on the surviving majority.
  const Status put = cluster.etcd()->put(
      "route/canary",
      framework::Gateway::encode_replicas(99, {framework::Replica{1}}));
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  std::printf("  route update after failover: %s\n",
              put.ok() ? "committed" : put.error().message.c_str());
  if (!ping(cluster, "after failover")) return 1;

  std::printf("\n  deployment state survived the leader crash; zero request "
              "loss.\n");
  return 0;
}
