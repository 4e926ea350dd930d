// Workload manager (Fig. 2): compiles users' Match+Lambda bundles,
// uploads artifacts to global storage, deploys to backends (recording
// the Table 4 startup phases), and registers routes — directly with a
// gateway and/or through the etcd store gateways watch.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "common/result.h"
#include "framework/gateway.h"
#include "framework/placement.h"
#include "framework/storage.h"
#include "kvstore/etcd.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

namespace lnic::framework {

/// One replica of a function as actually deployed.
struct PlacedReplica {
  NodeId node = kInvalidNode;
  backends::BackendKind kind = backends::BackendKind::kLambdaNic;
};

/// Where one function's replicas landed.
struct FunctionPlacement {
  std::string function;
  WorkloadId workload = kInvalidWorkload;
  std::vector<PlacedReplica> replicas;
};

/// Result of one deployment: what was installed where, how long the
/// slowest backend took to become ready (download + boot, Table 4's
/// axes) and the per-function placement.
struct DeploymentRecord {
  std::string artifact_name;
  Bytes artifact_bytes = 0;
  SimDuration startup_time = 0;
  SimTime ready_at = 0;
  std::vector<std::pair<std::string, WorkloadId>> functions;
  std::vector<FunctionPlacement> placements;
  /// Tenant namespace the bundle was deployed under (empty for
  /// tenant-less deploys). Gateway routes are registered as
  /// "<tenant>/<function>".
  std::string tenant;
  TenantId tenant_id = kDefaultTenant;
};

class WorkloadManager {
 public:
  WorkloadManager(sim::Simulator& sim, BlobStorage& storage,
                  kvstore::EtcdStore* etcd = nullptr)
      : sim_(sim), storage_(storage), etcd_(etcd) {}

  /// Capacity-aware deployment across a heterogeneous pool (§5, Fig. 2):
  /// measures per-lambda footprints, places them with place_nic_first,
  /// splits the bundle per backend, compiles each distinct slice once
  /// and installs that one image on every backend that runs it, uploads
  /// the artifacts, and registers every function as a replica set
  /// (with backend kinds) in `gateway` (if given) and etcd (if
  /// configured). The record carries the full placement.
  ///
  /// A non-empty `tenant` namespaces the deployment: every function of
  /// the bundle belongs to it. Workload → tenant assignments and the
  /// tenant's quota (if one was recorded) are installed on each backend
  /// *before* its deploy, so NIC quota admission sees them; routes
  /// register under "<tenant>/<function>" with the tenant id carried in
  /// gateway routes, request headers, and the etcd mirror.
  Result<DeploymentRecord> deploy(workloads::WorkloadBundle bundle,
                                  std::span<backends::Backend* const> pool,
                                  Gateway* gateway,
                                  const std::string& tenant = {});

  /// Records a tenant's NIC resource quota, applied to every backend on
  /// that tenant's subsequent deploys.
  void set_tenant_quota(const std::string& tenant, nicsim::TenantQuota quota) {
    tenant_quotas_[tenant] = quota;
  }

  const std::vector<DeploymentRecord>& deployments() const {
    return deployments_;
  }

 private:
  TenantId resolve_tenant(const std::string& tenant, Gateway* gateway);

  sim::Simulator& sim_;
  BlobStorage& storage_;
  kvstore::EtcdStore* etcd_;
  std::vector<DeploymentRecord> deployments_;
  std::map<std::string, nicsim::TenantQuota> tenant_quotas_;
  std::map<std::string, TenantId> local_tenant_ids_;  // gateway-less deploys
};

}  // namespace lnic::framework
