#include "framework/manager.h"

#include <algorithm>
#include <memory>

#include "compiler/pipeline.h"
#include "workloads/split.h"

namespace lnic::framework {

TenantId WorkloadManager::resolve_tenant(const std::string& tenant,
                                         Gateway* gateway) {
  if (tenant.empty()) return kDefaultTenant;
  if (gateway != nullptr) return gateway->register_tenant(tenant);
  const auto it = local_tenant_ids_.find(tenant);
  if (it != local_tenant_ids_.end()) return it->second;
  const TenantId id =
      static_cast<TenantId>(local_tenant_ids_.size()) + 1;
  local_tenant_ids_[tenant] = id;
  return id;
}

Result<DeploymentRecord> WorkloadManager::deploy(
    workloads::WorkloadBundle bundle, std::span<backends::Backend* const> pool,
    Gateway* gateway, const std::string& tenant) {
  if (pool.empty()) return make_error("manager: empty backend pool");
  const TenantId tenant_id = resolve_tenant(tenant, gateway);

  auto footprints = compute_footprints(bundle);
  if (!footprints.ok()) return footprints.error();
  auto plan = place_nic_first(snapshot_pool(pool), footprints.value());
  if (!plan.ok()) return plan.error();

  DeploymentRecord record;
  record.artifact_name = bundle.lambdas.name;
  record.tenant = tenant;
  record.tenant_id = tenant_id;
  for (const auto& fp : footprints.value()) {
    record.functions.emplace_back(fp.name, fp.workload);
  }
  // Route names live in the tenant's namespace ("tenant/function").
  const auto route_name = [&](const std::string& fn) {
    return tenant.empty() ? fn : tenant + "/" + fn;
  };

  // Deploy each backend's slice of the bundle. A slice is compiled once
  // per distinct set of compiler options, the first time a backend needs
  // it, and every backend running it gets that one image, so a pool of
  // NICs compiles and decodes its firmware once. Nothing outlives this
  // call but the images the backends hold.
  struct Firmware {
    const std::vector<std::string>* functions;
    compiler::Options options;
    std::shared_ptr<const compiler::CompileOutput> output;
  };
  std::vector<Firmware> firmware;
  const auto per_backend = plan.value().functions_per_backend(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (per_backend[i].empty()) continue;
    backends::Backend& backend = *pool[i];

    if (tenant_id != kDefaultTenant) {
      // Tenancy binds before the firmware lands so quota admission in
      // the backend's deploy sees the assignments.
      const auto quota = tenant_quotas_.find(tenant);
      if (quota != tenant_quotas_.end()) {
        backend.set_tenant_quota(tenant_id, quota->second);
      }
      for (const auto& fp : footprints.value()) {
        backend.set_tenant_of(fp.workload, tenant_id);
      }
    }

    const auto profile = backend.startup_profile();
    record.artifact_bytes = std::max(record.artifact_bytes,
                                     profile.artifact_bytes);
    record.startup_time = std::max(record.startup_time, profile.startup_time);
    record.ready_at = std::max(record.ready_at,
                               sim_.now() + profile.startup_time);
    storage_.put(std::string(backends::to_string(backend.kind())) + "/" +
                     bundle.lambdas.name,
                 profile.artifact_bytes);

    const compiler::Options options = backend.firmware_options();
    auto image = std::find_if(
        firmware.begin(), firmware.end(), [&](const Firmware& f) {
          return *f.functions == per_backend[i] && f.options == options;
        });
    if (image == firmware.end()) {
      auto sub = workloads::split_bundle(bundle, per_backend[i]);
      auto compiled =
          compiler::compile(sub.spec, std::move(sub.lambdas), options);
      if (!compiled.ok()) return compiled.error();
      image = firmware.insert(
          firmware.end(),
          Firmware{&per_backend[i], options,
                   std::make_shared<const compiler::CompileOutput>(
                       std::move(compiled).value())});
    }
    if (Status st = backend.deploy(image->output); !st.ok()) {
      return st.error();
    }
  }

  // Register every function as a replica set carrying backend
  // kinds, both directly with the gateway and mirrored into etcd.
  for (const auto& fp : footprints.value()) {
    const auto it = plan.value().functions.find(fp.name);
    if (it == plan.value().functions.end()) continue;
    FunctionPlacement placement;
    placement.function = fp.name;
    placement.workload = fp.workload;
    std::vector<Replica> replicas;
    for (const auto& assignment : it->second) {
      const backends::Backend& backend = *pool[assignment.backend_index];
      placement.replicas.push_back(
          PlacedReplica{backend.node(), backend.kind()});
      replicas.push_back(Replica{backend.node(),
                                 static_cast<std::uint8_t>(backend.kind())});
    }
    if (gateway != nullptr) {
      gateway->register_replicas(route_name(fp.name), fp.workload, replicas,
                                 tenant_id);
    }
    if (etcd_ != nullptr) {
      // Best effort: requires an elected leader; callers running before
      // the election simply skip the etcd mirror.
      (void)etcd_->put(
          "route/" + route_name(fp.name),
          Gateway::encode_replicas(fp.workload, replicas, tenant_id));
    }
    record.placements.push_back(std::move(placement));
  }

  deployments_.push_back(record);
  return record;
}

}  // namespace lnic::framework
