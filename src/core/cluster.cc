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
      sharded_(config.shards),
      network_(sharded_, config.link, config.faults, config.seed),
      storage_(backends::kMgmtBandwidthBps) {
  // The master stack — gateway, cache, etcd, manager — shares shard 0;
  // its components call each other synchronously and must never be split.
  sim::Simulator& sim0 = sharded_.shard(0);
  gateway_ = std::make_unique<framework::Gateway>(sim0, network_,
                                                  config.gateway);
  cache_ = std::make_unique<kvstore::CacheServer>(sim0, network_);
  if (config.with_etcd) {
    etcd_ = std::make_unique<kvstore::EtcdStore>(sim0, config.etcd_nodes);
    etcd_->start();
  }
  manager_ = std::make_unique<framework::WorkloadManager>(sim0, storage_,
                                                          etcd_.get());
  // Workers spread round robin across shards 1..N-1: each worker's
  // NIC/host state lives (and its events run) wholly on its shard; only
  // packets cross shard boundaries. The master keeps shard 0 to itself.
  // Workers only talk to shard 0 (gateway and cache), never to each
  // other, so no grouping of workers keeps more traffic on one shard.
  const auto kinds = config.effective_worker_kinds();
  const unsigned shards = sharded_.shards();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const unsigned shard =
        shards > 1 ? 1 + static_cast<unsigned>(i % (shards - 1)) : 0;
    network_.set_attach_shard(shard);
    workers_.push_back(backends::make_backend(kinds[i],
                                              sharded_.shard(shard), network_,
                                              config.worker_threads));
    workers_.back()->set_kv_server(cache_->node());
  }
  network_.set_attach_shard(0);
  if (etcd_) gateway_->sync_with(*etcd_);
}

Result<framework::DeploymentRecord> Cluster::deploy(
    workloads::WorkloadBundle bundle, const std::string& tenant) {
  if (auto lookahead = sharded_.validate_lookahead(); !lookahead.ok()) {
    return lookahead.error();
  }
  // Let the etcd cluster elect a leader so route mirroring succeeds.
  if (etcd_) sharded_.run_until(sharded_.now() + seconds(2));

  // The manager's deploy path is synchronous direct calls into the
  // backends — safe to cross shards here because no window is running:
  // the coordinator thread owns every shard between runs.
  std::vector<backends::Backend*> pool;
  pool.reserve(workers_.size());
  for (auto& worker : workers_) pool.push_back(worker.get());
  auto record = manager_->deploy(
      std::move(bundle), pool,
      framework::placement_policy(config_.placement), gateway_.get(), tenant);
  if (!record.ok()) return record.error();
  ready_at_ = std::max(ready_at_, record.value().ready_at);
  return record;
}

void Cluster::wait_until_ready() {
  sharded_.run_until(std::max(ready_at_, sharded_.now()) + milliseconds(1));
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
  // generous deadline so a lost response cannot hang the caller. On one
  // shard this steps the classic engine; on many it advances window by
  // window, checking the slot at each barrier.
  const SimTime deadline = sharded_.now() + seconds(300);
  sharded_.run_until(deadline, [&slot] { return slot.has_value(); });
  if (!slot.has_value()) {
    return make_error("cluster: no response before deadline");
  }
  return std::move(*slot);
}

}  // namespace lnic::core
