// λ-NIC public API: a one-object testbed mirroring the paper's Figure 5
// cluster — a master node (gateway, workload manager, memcached-like
// cache, etcd, artifact storage, monitoring) plus N worker nodes, each
// hosting one serverless backend, all behind a 10 G switch.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::ClusterConfig config;
//   core::Cluster cluster(config);
//   cluster.deploy(workloads::make_standard_workloads());
//   cluster.wait_until_ready();
//   auto response = cluster.invoke_and_wait(
//       "web_server", workloads::encode_web_request(0));
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "common/result.h"
#include "framework/gateway.h"
#include "framework/manager.h"
#include "framework/storage.h"
#include "kvstore/cache_server.h"
#include "kvstore/etcd.h"
#include "net/network.h"
#include "proto/rpc.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

namespace lnic::core {

struct ClusterConfig {
  std::uint32_t workers = 4;  // M2-M5 (§6.1.2)
  backends::BackendKind backend = backends::BackendKind::kLambdaNic;
  // Per-worker backend kinds for heterogeneous clusters, e.g.
  // {kLambdaNic, kLambdaNic, kBareMetal, kContainer}. When non-empty it
  // overrides `workers`/`backend`; when empty the cluster is homogeneous
  // (`workers` copies of `backend`), as before.
  std::vector<backends::BackendKind> worker_kinds;
  bool with_etcd = true;
  std::uint32_t etcd_nodes = 3;
  net::FaultConfig faults;
  framework::GatewayConfig gateway;
  std::uint64_t seed = 7;

  /// The effective per-worker kinds after applying the homogeneous
  /// convenience expansion.
  std::vector<backends::BackendKind> effective_worker_kinds() const;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  /// The one event engine every node of the cluster runs on.
  sim::Simulator& sim() { return sim_; }
  /// Same engine as sim(); stays until a benchmark change moves
  /// perfbench onto sim().
  sim::Simulator& sharded() { return sim_; }
  net::Network& network() { return network_; }
  framework::Gateway& gateway() { return *gateway_; }
  framework::WorkloadManager& manager() { return *manager_; }
  framework::BlobStorage& storage() { return storage_; }
  kvstore::CacheServer& cache() { return *cache_; }
  kvstore::EtcdStore* etcd() { return etcd_.get(); }
  backends::Backend& worker(std::size_t i) { return *workers_.at(i); }
  std::size_t worker_count() const { return workers_.size(); }

  /// Deploys the bundle across the worker pool, NIC-first with host
  /// spillover, and registers replica routes. The cluster is
  /// serving after wait_until_ready(). A non-empty `tenant` namespaces
  /// the deployment: routes register as "<tenant>/<function>" and the
  /// tenant id rides every request header, so the NIC's DRR scheduler
  /// and quota admission see the namespace.
  Result<framework::DeploymentRecord> deploy(workloads::WorkloadBundle bundle,
                                             const std::string& tenant = {});

  /// Records `tenant`'s NIC resource quota for subsequent deploys.
  void set_tenant_quota(const std::string& tenant, nicsim::TenantQuota quota) {
    manager_->set_tenant_quota(tenant, quota);
  }

  /// Advances the simulation past etcd elections and backend startup
  /// (firmware load / container pull).
  void wait_until_ready();

  /// Fire-and-callback invocation through the gateway.
  void invoke(const std::string& name, net::BufferView payload,
              framework::InvokeCallback callback);

  /// Invokes and runs the simulation until the response (or failure)
  /// arrives. Convenience for examples and tests.
  Result<proto::RpcResponse> invoke_and_wait(const std::string& name,
                                             net::BufferView payload);

 private:
  ClusterConfig config_;
  sim::Simulator sim_;
  net::Network network_;
  framework::BlobStorage storage_;
  std::unique_ptr<framework::Gateway> gateway_;
  std::unique_ptr<kvstore::CacheServer> cache_;
  std::unique_ptr<kvstore::EtcdStore> etcd_;
  std::unique_ptr<framework::WorkloadManager> manager_;
  std::vector<std::unique_ptr<backends::Backend>> workers_;
  SimTime ready_at_ = 0;
};

}  // namespace lnic::core
