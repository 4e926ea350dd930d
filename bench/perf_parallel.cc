// Wall-clock throughput of the sharded engine: aggregate events/sec vs
// shard count on the cluster mix, with and without locality.
//
// The workload is K self-contained λ-NIC islands (SmartNIC worker + kv
// cache + closed-loop RPC client, all pinned to one shard) with ~1/8 of
// requests aimed at a peer island's NIC. "Locality" means block
// placement plus the local-only declarations it makes true; without it
// no node is declared, so every window is one lookahead long. Four
// configurations per shard count (the names are the JSON cell names):
//
//   ring          peer = next island, round-robin placement, no
//                 declarations: the baseline.
//   ring/adaptive peer = next island, locality: most islands are
//                 co-sharded with their peer.
//   idle          peer = buddy island (i XOR 1), round-robin placement,
//                 no declarations: every pair straddles a shard
//                 boundary, so windows stay one lookahead long.
//   idle/adaptive same pair topology, locality co-shards every pair:
//                 zero cross-shard traffic, every island is local-only,
//                 all EOT reports are +inf — the engine collapses the
//                 whole run into a handful of windows.
//
// The idle pair shows EOT extension's headline: identical simulated
// workload, identical completions, but the locality run stops paying a
// barrier every 25 us of simulated time. The ring pair shows locality
// placement cutting cross-shard posts on a topology where extension
// alone cannot help (every shard's frontier stays hot).
//
// Link propagation is raised to 25 us: the lookahead — and with it the
// barrier window — is the physical link delay. Simulated *results*
// (per-request latencies, completion counts) are deterministic per
// (topology, shard count); only wall-clock rates vary by machine.
// hw_threads is recorded so tools/check_perf.py enforces speedup floors
// only where the cores actually exist.
//
// Usage: perf_parallel [--smoke]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "sim/sharded.h"

namespace lnic::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kIslands = 8;

struct Island {
  std::unique_ptr<backends::Backend> nic;
  std::unique_ptr<kvstore::CacheServer> cache;
  std::unique_ptr<proto::RpcClient> client;
  NodeId peer = kInvalidNode;  // target of this island's cross traffic
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::function<void()> issue;
};

/// One (topology, locality) configuration of the sweep.
struct RunConfig {
  const char* family;   // JSON cell prefix ("shardsN" + suffix)
  const char* label;    // table row label
  bool pair_topology;   // peer = i ^ 1 instead of (i + 1) % K
  bool locality;        // block placement + local-only declarations
};

constexpr RunConfig kConfigs[] = {
    {"", "ring/static", false, false},
    {"_adaptive", "ring/adaptive", false, true},
    {"_idle_static", "idle/static", true, false},
    {"_idle_adaptive", "idle/adaptive", true, true},
};

struct SweepPoint {
  double events_per_sec = 0.0;
  std::uint64_t dispatched = 0;      // measurement window only
  std::uint64_t completed = 0;       // deterministic per shard count
  std::uint64_t cross_posts = 0;
  std::uint64_t windows = 0;
  std::uint64_t windows_extended = 0;
  sim::ShardStats stats;             // busy/barrier/sync stall breakdown
};

std::size_t peer_of(const RunConfig& config, std::size_t i) {
  return config.pair_topology ? (i ^ 1) : (i + 1) % kIslands;
}

unsigned shard_of_island(const RunConfig& config, std::size_t i,
                         unsigned shards) {
  // Block placement keeps neighbors together (islands {0,1} share a
  // shard at 4 shards, {0..3} at 2); round-robin scatters them, the
  // original placement, so those cells replay byte-for-byte.
  if (config.locality) {
    return static_cast<unsigned>(i * shards / kIslands);
  }
  return static_cast<unsigned>(i % shards);
}

SweepPoint run_point(const RunConfig& config, unsigned shards,
                     std::uint64_t requests_per_island,
                     std::uint32_t concurrency) {
  sim::ShardedSimulator sharded(shards);
  // Tightened barrier-outlier paging (default 8x-mean): a perf bench
  // wants to hear about smaller stalls than a correctness run does.
  sharded.stats_collector().set_outlier_threshold(6.0);
  net::LinkConfig link;
  link.propagation = microseconds(25);  // lookahead == barrier window
  net::Network network(sharded, link);

  std::vector<Island> islands(kIslands);
  for (std::size_t i = 0; i < kIslands; ++i) {
    const unsigned shard = shard_of_island(config, i, sharded.shards());
    sim::Simulator& sim = sharded.shard(shard);
    network.set_attach_shard(shard);
    Island& island = islands[i];
    island.nic = backends::make_backend(backends::BackendKind::kLambdaNic,
                                        sim, network);
    island.cache = std::make_unique<kvstore::CacheServer>(sim, network);
    island.nic->set_kv_server(island.cache->node());
    proto::RpcConfig rpc;
    rpc.retransmit_timeout = seconds(60);
    island.client = std::make_unique<proto::RpcClient>(sim, network, rpc);
    if (!island.nic->deploy(workloads::make_standard_workloads()).ok()) {
      std::fprintf(stderr, "perf_parallel: deploy failed\n");
      return {};
    }
  }
  network.set_attach_shard(0);
  for (std::size_t i = 0; i < kIslands; ++i) {
    islands[i].peer = islands[peer_of(config, i)].nic->node();
  }

  if (config.locality) {
    // Locality declarations, derived from the placement: an island's
    // cache answers only its own NIC; its client sends off-shard only
    // when its peer NIC lives elsewhere; its NIC replies off-shard only
    // when some caller's client lives elsewhere. Each declaration is a
    // hard promise the fabric enforces at send time.
    for (std::size_t i = 0; i < kIslands; ++i) {
      const unsigned home = shard_of_island(config, i, sharded.shards());
      network.set_local_only(islands[i].cache->node(), true);
      const std::size_t peer = peer_of(config, i);
      if (shard_of_island(config, peer, sharded.shards()) == home) {
        network.set_local_only(islands[i].client->node(), true);
      }
      bool callers_local = true;
      for (std::size_t j = 0; j < kIslands; ++j) {
        if (peer_of(config, j) != i) continue;
        if (shard_of_island(config, j, sharded.shards()) != home) {
          callers_local = false;
        }
      }
      if (callers_local) {
        network.set_local_only(islands[i].nic->node(), true);
      }
    }
  }

  sharded.run_until(seconds(20));  // firmware flash

  // Closed loop per island; every callback runs on the island's shard
  // and touches only island-local state.
  for (Island& island : islands) {
    Island* self = &island;
    self->issue = [self, requests_per_island]() {
      if (self->issued >= requests_per_island) return;
      const std::uint64_t i = self->issued++;
      const NodeId target =
          (i % 8 == 7) ? self->peer : self->nic->node();
      self->client->call(target, workloads::kWebServerId,
                         workloads::encode_web_request(i & 3),
                         [self](Result<proto::RpcResponse> result) {
                           if (result.ok()) ++self->completed;
                           self->issue();
                         });
    };
    for (std::uint32_t c = 0; c < concurrency; ++c) self->issue();
  }

  const std::uint64_t before = sharded.events_dispatched();
  const auto t0 = Clock::now();
  sharded.run();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();

  SweepPoint point;
  point.dispatched = sharded.events_dispatched() - before;
  point.events_per_sec =
      secs > 0 ? static_cast<double>(point.dispatched) / secs : 0.0;
  for (const Island& island : islands) point.completed += island.completed;
  point.cross_posts = sharded.cross_shard_posts();
  point.windows = sharded.windows_executed();
  point.windows_extended = sharded.windows_extended();
  point.stats = sharded.shard_stats();
  return point;
}

/// Worst per-shard deviation of busy + barrier + sync from the run's
/// total wall, in percent. The accounting makes this ~0 by construction;
/// anything above the 1% gate means the collector's identity broke.
double stall_sum_error_pct(const sim::ShardStats& stats) {
  if (stats.total_wall_ns == 0) return 0.0;
  double worst = 0.0;
  for (unsigned s = 0; s < stats.shards; ++s) {
    const double sum = static_cast<double>(
        stats.busy_ns[s] + stats.barrier_ns[s] + stats.sync_wall_ns());
    const double err =
        std::abs(sum - static_cast<double>(stats.total_wall_ns)) /
        static_cast<double>(stats.total_wall_ns) * 100.0;
    worst = std::max(worst, err);
  }
  return worst;
}

int run(std::uint64_t requests_per_island, std::uint32_t concurrency,
        const std::vector<unsigned>& sweep) {
  print_header("Perf: sharded engine, events/sec vs shard count");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("  %zu nic islands, %llu requests each, %u-way closed loop, "
              "%u hw thread(s)\n\n",
              kIslands,
              static_cast<unsigned long long>(requests_per_island),
              concurrency, hw);
  std::printf("  %-14s %6s %14s %12s %10s %9s %9s %8s\n", "config", "shards",
              "events/sec", "completed", "x-posts", "windows", "extended",
              "util");

  BenchSummary out("perf_parallel", /*seed=*/1, sweep.back());
  out.add("hw_threads", static_cast<double>(hw), "threads");
  out.add("islands", static_cast<double>(kIslands), "count");

  double base_rate = 0.0;
  double rate_at_4 = 0.0;
  double idle_static_at_4 = 0.0;
  double idle_adaptive_at_4 = 0.0;
  double worst_sum_err = 0.0;
  for (const RunConfig& config : kConfigs) {
    for (const unsigned shards : sweep) {
      const SweepPoint p =
          run_point(config, shards, requests_per_island, concurrency);
      std::printf("  %-14s %6u %14.0f %12llu %10llu %9llu %9llu %8.2f\n",
                  config.label, shards, p.events_per_sec,
                  static_cast<unsigned long long>(p.completed),
                  static_cast<unsigned long long>(p.cross_posts),
                  static_cast<unsigned long long>(p.windows),
                  static_cast<unsigned long long>(p.windows_extended),
                  p.stats.lookahead_utilization);
      const std::string cell =
          "shards" + std::to_string(shards) + config.family;
      out.add(cell + "_events_per_sec", p.events_per_sec, "events/s");
      out.add(cell + "_dispatched", static_cast<double>(p.dispatched),
              "events");
      out.add(cell + "_completed", static_cast<double>(p.completed),
              "requests");
      out.add(cell + "_cross_posts", static_cast<double>(p.cross_posts),
              "events");
      out.add(cell + "_windows", static_cast<double>(p.windows), "windows");
      out.add(cell + "_windows_extended",
              static_cast<double>(p.windows_extended), "windows");
      out.add(cell + "_window_span_ns", p.stats.mean_window_span_ns, "ns");
      // Stall breakdown: *why* a row scales (or plateaus) — a high
      // barrier share means load imbalance across islands, a high sync
      // share means windows too short to amortize the serial merge.
      const double sum_err = stall_sum_error_pct(p.stats);
      worst_sum_err = std::max(worst_sum_err, sum_err);
      std::uint64_t busy_total = 0;
      std::uint64_t barrier_total = 0;
      for (unsigned s = 0; s < p.stats.shards; ++s) {
        busy_total += p.stats.busy_ns[s];
        barrier_total += p.stats.barrier_ns[s];
      }
      out.add(cell + "_busy_ns", static_cast<double>(busy_total), "ns");
      out.add(cell + "_barrier_ns", static_cast<double>(barrier_total), "ns");
      out.add(cell + "_sync_ns", static_cast<double>(p.stats.sync_wall_ns()),
              "ns");
      out.add(cell + "_wall_ns", static_cast<double>(p.stats.total_wall_ns),
              "ns");
      out.add(cell + "_stall_sum_err_pct", sum_err, "%");
      out.add(cell + "_lookahead_util", p.stats.lookahead_utilization,
              "ratio");
      if (shards > 1) {
        std::printf("  -- %s", p.stats.to_string().c_str());
      }
      if (std::strlen(config.family) == 0) {
        if (shards == 1) base_rate = p.events_per_sec;
        if (shards == 4) rate_at_4 = p.events_per_sec;
      }
      if (shards == 4 &&
          std::strcmp(config.family, "_idle_static") == 0) {
        idle_static_at_4 = p.events_per_sec;
      }
      if (shards == 4 &&
          std::strcmp(config.family, "_idle_adaptive") == 0) {
        idle_adaptive_at_4 = p.events_per_sec;
      }
    }
  }
  if (base_rate > 0 && rate_at_4 > 0) {
    const double speedup = rate_at_4 / base_rate;
    std::printf("\n  4-shard speedup over 1 shard (ring/static): %.2fx%s\n",
                speedup,
                hw < 4 ? " (machine has <4 hw threads; not meaningful)"
                       : "");
    out.add("speedup_4x", speedup, "ratio");
  }
  if (idle_static_at_4 > 0 && idle_adaptive_at_4 > 0) {
    const double speedup = idle_adaptive_at_4 / idle_static_at_4;
    std::printf("  locality speedup at 4 shards (idle frontier): "
                "%.2fx%s\n",
                speedup,
                hw < 4 ? " (machine has <4 hw threads; not meaningful)"
                       : "");
    out.add("idle_speedup_4x", speedup, "ratio");
  }
  std::printf("  worst stall-breakdown sum error: %.3f%% of wall\n",
              worst_sum_err);
  if (worst_sum_err > 1.0) {
    return bench_fail("stall breakdown does not sum to wall time (" +
                      std::to_string(worst_sum_err) + "% off)");
  }
  return 0;
}

}  // namespace
}  // namespace lnic::bench

int main(int argc, char** argv) {
  std::uint64_t requests = 20'000;
  std::vector<unsigned> sweep = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      requests = 2'000;
      sweep = {1, 2, 4};
    }
  }
  return lnic::bench::run(requests, /*concurrency=*/16, sweep);
}
