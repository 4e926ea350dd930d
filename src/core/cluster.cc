#include "core/cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace lnic::core {

namespace {

/// Maps each worker to a shard in 1..worker_shards, keeping islands
/// whole: islands are placed in order of first appearance onto the
/// least-loaded shard (lowest index wins ties). With every worker its
/// own island — the empty-config default — this degenerates to exactly
/// the legacy `1 + i % worker_shards` round-robin, so existing sharded
/// runs replay byte-for-byte.
std::vector<unsigned> assign_worker_shards(
    const std::vector<unsigned>& worker_islands, std::size_t workers,
    unsigned worker_shards) {
  std::vector<unsigned> island_of(workers);
  if (worker_islands.empty()) {
    for (std::size_t i = 0; i < workers; ++i) {
      island_of[i] = static_cast<unsigned>(i);
    }
  } else {
    if (worker_islands.size() != workers) {
      std::fprintf(stderr,
                   "ClusterConfig: worker_islands has %zu entries for %zu "
                   "workers — one island id per worker is required\n",
                   worker_islands.size(), workers);
      std::abort();
    }
    island_of = worker_islands;
  }
  // Island sizes, in order of first appearance (placement order).
  std::vector<unsigned> order;
  std::map<unsigned, std::size_t> size;
  for (const unsigned island : island_of) {
    if (size.count(island) == 0) order.push_back(island);
    ++size[island];
  }
  std::map<unsigned, unsigned> shard_of_island;
  std::vector<std::size_t> load(worker_shards, 0);
  for (const unsigned island : order) {
    const auto least = std::min_element(load.begin(), load.end());
    const auto s = static_cast<unsigned>(least - load.begin());
    shard_of_island[island] = 1 + s;
    *least += size[island];
  }
  std::vector<unsigned> shard(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    shard[i] = shard_of_island[island_of[i]];
  }
  return shard;
}

}  // namespace

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
  // Workers spread across shards 1..N-1 (island-aware, see
  // assign_worker_shards): each island's NIC/host state lives (and its
  // events run) wholly on its shard; only packets cross shard
  // boundaries. The master keeps shard 0 to itself.
  const auto kinds = config.effective_worker_kinds();
  const unsigned worker_shards =
      sharded_.shards() > 1 ? sharded_.shards() - 1 : 1;
  const auto worker_shard = assign_worker_shards(config.worker_islands,
                                                 kinds.size(), worker_shards);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const unsigned shard = sharded_.shards() > 1 ? worker_shard[i] : 0;
    network_.set_attach_shard(shard);
    workers_.push_back(backends::make_backend(kinds[i],
                                              sharded_.shard(shard), network_,
                                              config.worker_threads));
    workers_.back()->set_kv_server(cache_->node());
  }
  network_.set_attach_shard(0);
  if (config.shard_affinity_routing) gateway_->enable_shard_affinity(network_);
  if (etcd_) gateway_->sync_with(*etcd_);
}

Result<framework::DeploymentRecord> Cluster::deploy(
    workloads::WorkloadBundle bundle) {
  return deploy(std::move(bundle), std::string());
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
