#include "core/cluster.h"

#include <algorithm>

namespace lnic::core {

std::vector<backends::BackendKind> ClusterConfig::effective_worker_kinds()
    const {
  if (!worker_kinds.empty()) return worker_kinds;
  return std::vector<backends::BackendKind>(workers, backend);
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      network_(sim_, config.faults, config.seed),
      storage_(backends::kMgmtBandwidthBps) {
  gateway_ = std::make_unique<framework::Gateway>(sim_, network_,
                                                  config.gateway);
  cache_ = std::make_unique<kvstore::CacheServer>(sim_, network_);
  if (config.with_etcd) {
    etcd_ = std::make_unique<kvstore::EtcdStore>(sim_, config.etcd_nodes);
    etcd_->start();
  }
  manager_ = std::make_unique<framework::WorkloadManager>(sim_, storage_,
                                                          etcd_.get());
  for (const backends::BackendKind kind : config.effective_worker_kinds()) {
    workers_.push_back(backends::make_backend(kind, sim_, network_));
    workers_.back()->set_kv_server(cache_->node());
  }
  if (etcd_) gateway_->sync_with(*etcd_);
}

Result<framework::DeploymentRecord> Cluster::deploy(
    workloads::WorkloadBundle bundle, const std::string& tenant) {
  // Let the etcd cluster elect a leader so route mirroring succeeds.
  if (etcd_) sim_.run_until(sim_.now() + seconds(2));

  std::vector<backends::Backend*> pool;
  pool.reserve(workers_.size());
  for (auto& worker : workers_) pool.push_back(worker.get());
  auto record =
      manager_->deploy(std::move(bundle), pool, gateway_.get(), tenant);
  if (!record.ok()) return record.error();
  ready_at_ = std::max(ready_at_, record.value().ready_at);
  return record;
}

void Cluster::wait_until_ready() {
  sim_.run_until(std::max(ready_at_, sim_.now()) + milliseconds(1));
}

void Cluster::invoke(const std::string& name,
                     net::BufferView payload,
                     framework::InvokeCallback callback) {
  gateway_->invoke(name, std::move(payload), std::move(callback));
}

Result<proto::RpcResponse> Cluster::invoke_and_wait(
    const std::string& name, net::BufferView payload) {
  std::optional<Result<proto::RpcResponse>> slot;
  gateway_->invoke(name, std::move(payload),
                   [&slot](Result<proto::RpcResponse> r) {
                     slot = std::move(r);
                   });
  // Run with a completion predicate (rather than to drain) because
  // etcd's Raft timers keep the queue non-empty forever; bound by a
  // generous deadline so a lost response cannot hang the caller.
  sim_.run_until(sim_.now() + seconds(300),
                 [&slot] { return slot.has_value(); });
  if (!slot.has_value()) {
    return make_error("cluster: no response before deadline");
  }
  return std::move(*slot);
}

}  // namespace lnic::core
