// Tests for the sharded parallel simulation engine (sim/sharded.h) and
// its integration with the network fabric and the cluster: conservative
// windows, EOT extension from locality declarations, (time, global-seq)
// merge order, the lookahead contract, and shard-count invariance of
// simulated results.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "framework/metrics.h"
#include "net/network.h"
#include "sim/sharded.h"
#include "workloads/lambdas.h"

namespace lnic {
namespace {

TEST(ShardedSimulator, SingleShardDelegatesToClassicEngine) {
  sim::ShardedSimulator sharded;
  ASSERT_EQ(sharded.shards(), 1u);
  std::vector<int> order;
  sharded.shard(0).schedule_at(microseconds(2), [&] { order.push_back(2); });
  sharded.shard(0).schedule_at(microseconds(1), [&] { order.push_back(1); });
  EXPECT_EQ(sharded.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sharded.now(), microseconds(1) * 0 + sharded.shard(0).now());
  EXPECT_EQ(sharded.windows_executed(), 0u);  // no barrier machinery
  EXPECT_EQ(sharded.cross_shard_posts(), 0u);
}

TEST(ShardedSimulator, MultiShardRunsAllShardsToDrain) {
  sim::ShardedSimulator sharded(4);
  sharded.constrain_lookahead(microseconds(1));
  int fired = 0;
  for (unsigned s = 0; s < 4; ++s) {
    sharded.shard(s).schedule_at(microseconds(5 + s), [&fired] { ++fired; });
  }
  EXPECT_EQ(sharded.run(), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_GE(sharded.windows_executed(), 1u);
}

TEST(ShardedSimulator, RunUntilAlignsEveryShardClock) {
  sim::ShardedSimulator sharded(3);
  sharded.constrain_lookahead(microseconds(1));
  sharded.shard(1).schedule_at(microseconds(2), [] {});
  sharded.run_until(milliseconds(1));
  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded.shard(s).now(), milliseconds(1)) << "shard " << s;
  }
}

TEST(ShardedSimulator, SameTickCrossShardArrivalsDispatchInGlobalSeqOrder) {
  sim::ShardedSimulator sharded(4);
  sharded.constrain_lookahead(microseconds(1));
  std::vector<int> order;
  const SimTime tick = microseconds(10);
  // Posted out of source order, all due the same tick on shard 0. The
  // barrier merge sorts by (time, global-seq) where global-seq packs the
  // source shard in its high bits, so dispatch order is src 1, 2, 3 —
  // independent of call order and thread scheduling.
  sharded.post(3, 0, tick, sim::EventFn([&order] { order.push_back(3); }));
  sharded.post(1, 0, tick, sim::EventFn([&order] { order.push_back(1); }));
  sharded.post(2, 0, tick, sim::EventFn([&order] { order.push_back(2); }));
  // Two posts from one source keep their per-source sequence order.
  sharded.post(2, 0, tick, sim::EventFn([&order] { order.push_back(22); }));
  sharded.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 22, 3}));
  EXPECT_EQ(sharded.cross_shard_posts(), 4u);
}

TEST(ShardedSimulator, StopPredicateEndsRunAtBarrier) {
  sim::ShardedSimulator sharded(2);
  sharded.constrain_lookahead(microseconds(1));
  bool done = false;
  sharded.shard(1).schedule_at(microseconds(3), [&done] { done = true; });
  // Periodic noise so the queue never drains on its own.
  std::function<void()> tick = [&] {
    sharded.shard(0).schedule(microseconds(1), tick);
  };
  tick();
  sharded.run_until(seconds(1), [&done] { return done; });
  EXPECT_TRUE(done);
  EXPECT_LT(sharded.now(), seconds(1));
}

TEST(ShardedSimulator, AdaptiveEotOnWindowBoundaryDoesNotExtend) {
  // An EOT exactly at the window start yields eot + L - 1 == the static
  // end: extension must not trigger (it never shortens, and equal is
  // not longer).
  sim::ShardedSimulator sharded(2);
  sharded.constrain_lookahead(microseconds(10));
  // One counter per shard: both events run in one window, concurrently.
  int fired[2] = {0, 0};
  sharded.shard(0).schedule_at(microseconds(5), [&fired] { ++fired[0]; });
  sharded.shard(1).schedule_at(microseconds(5), [&fired] { ++fired[1]; });
  EXPECT_EQ(sharded.run(), 2u);
  EXPECT_EQ(fired[0] + fired[1], 2);
  EXPECT_EQ(sharded.windows_executed(), 1u);
  EXPECT_EQ(sharded.windows_extended(), 0u);
}

TEST(ShardedSimulator, AdaptiveIdleFrontierCollapsesDrainToOneWindow) {
  // When every shard reports an idle outbound frontier (EOT == +inf),
  // the drain collapses into a single horizon-length window; the static
  // engine pays one barrier per lookahead instead.
  // One counter per shard (fired[s]): shards run concurrently.
  const auto load = [](sim::ShardedSimulator& sharded, int* fired) {
    for (unsigned s = 0; s < 2; ++s) {
      for (int i = 0; i < 100; ++i) {
        sharded.shard(s).schedule_at(microseconds(i),
                                     [fired, s] { ++fired[s]; });
      }
    }
  };

  sim::ShardedSimulator fixed(2);
  fixed.constrain_lookahead(microseconds(1));
  int fired_fixed[2] = {0, 0};
  load(fixed, fired_fixed);
  fixed.run();
  EXPECT_EQ(fired_fixed[0] + fired_fixed[1], 200);
  EXPECT_GE(fixed.windows_executed(), 50u);

  sim::ShardedSimulator adaptive(2);
  adaptive.constrain_lookahead(microseconds(1));
  for (unsigned s = 0; s < 2; ++s) {
    adaptive.set_eot_source(s, [] { return kSimTimeMax; });
  }
  int fired_adaptive[2] = {0, 0};
  load(adaptive, fired_adaptive);
  adaptive.run();
  EXPECT_EQ(fired_adaptive[0] + fired_adaptive[1], 200);
  EXPECT_EQ(adaptive.windows_executed(), 1u);
  EXPECT_EQ(adaptive.windows_extended(), 1u);
}

TEST(ShardedSimulator, LateConstrainLookaheadTightensAdaptiveFloor) {
  // constrain_lookahead() arriving after a run (a link attached late)
  // must still tighten the window floor.
  sim::ShardedSimulator sharded(2);
  sharded.constrain_lookahead(microseconds(100));
  for (unsigned s = 0; s < 2; ++s) {
    for (int i = 0; i < 10; ++i) {
      sharded.shard(s).schedule_at(microseconds(10 * i), [] {});
    }
  }
  sharded.run();
  // All 10 event times fit inside one 100 us window.
  EXPECT_EQ(sharded.windows_executed(), 1u);

  sharded.constrain_lookahead(microseconds(10));
  const SimTime base = sharded.now();
  for (unsigned s = 0; s < 2; ++s) {
    for (int i = 0; i < 10; ++i) {
      sharded.shard(s).schedule_at(base + microseconds(10 * i), [] {});
    }
  }
  sharded.run();
  // The hot frontier (EOT == next event, one event per 10 us) pins each
  // window to the tightened floor: one per event time.
  EXPECT_EQ(sharded.windows_executed(), 11u);
  EXPECT_EQ(sharded.windows_extended(), 0u);
}

TEST(ShardedSimulatorDeathTest, CrossShardPostAtWindowEndAborts) {
  // Window [5 us, 14.999 us] with a 10 us lookahead: a post for the
  // window's last tick undercuts the lookahead and would land after the
  // destination ran past it, so it must abort whether or not any EOT
  // source is registered.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::ShardedSimulator sharded(2);
        sharded.constrain_lookahead(microseconds(10));
        sharded.shard(0).schedule_at(microseconds(5), [&sharded] {
          sharded.post(0, 1, microseconds(15) - 1, sim::EventFn([] {}));
        });
        sharded.run();
      },
      "inside the active window ending t=14999");
}

TEST(ShardedNetwork, IdleFrontierNeedsNodesAllLocalOnly) {
  sim::ShardedSimulator sharded(2);
  net::Network network(sharded);
  network.set_attach_shard(1);
  const NodeId far = network.attach(nullptr);
  network.set_local_only(far, true);
  // Shard 0 has no node but a busy queue: it reports its next event, not
  // +inf, so its events keep every window one lookahead long.
  for (int i = 0; i < 100; ++i) {
    sharded.shard(0).schedule_at(microseconds(i), [] {});
  }
  sharded.run();
  EXPECT_GE(sharded.windows_executed(), 50u);
  EXPECT_EQ(sharded.windows_extended(), 0u);

  // Every shard's nodes local-only: both frontiers idle, so the whole
  // drain is one extended window.
  network.set_attach_shard(0);
  network.set_local_only(network.attach(nullptr), true);
  const auto load = [&sharded] {
    const SimTime base = sharded.now();
    for (unsigned s = 0; s < 2; ++s) {
      for (int i = 0; i < 100; ++i) {
        sharded.shard(s).schedule_at(base + microseconds(i), [] {});
      }
    }
  };
  load();
  std::uint64_t before = sharded.windows_executed();
  sharded.run();
  EXPECT_EQ(sharded.windows_executed() - before, 1u);
  EXPECT_EQ(sharded.windows_extended(), 1u);

  // One remote-capable node pins its shard to its next event again.
  network.set_local_only(far, false);
  load();
  before = sharded.windows_executed();
  sharded.run();
  EXPECT_GE(sharded.windows_executed() - before, 50u);
  EXPECT_EQ(sharded.windows_extended(), 1u);
}

TEST(ShardedSimulator, ValidateLookaheadRejectsZeroDelayCoupling) {
  sim::ShardedSimulator sharded(2);
  net::LinkConfig link;
  link.propagation = 0;
  link.switch_latency = 0;
  net::Network network(sharded, link);
  const Status status = sharded.validate_lookahead();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("zero-delay"), std::string::npos)
      << status.error().message;
  EXPECT_NE(status.error().message.find("lookahead"), std::string::npos);
}

TEST(ShardedSimulator, SingleShardToleratesZeroDelayCoupling) {
  // The legacy engine has no lookahead requirement; shards=1 must keep
  // accepting zero-delay links.
  sim::ShardedSimulator sharded(1);
  net::LinkConfig link;
  link.propagation = 0;
  link.switch_latency = 0;
  net::Network network(sharded, link);
  EXPECT_TRUE(sharded.validate_lookahead().ok());
}

TEST(ShardedCluster, ZeroDelayLinkRejectedAtDeploy) {
  core::ClusterConfig config;
  config.workers = 2;
  config.shards = 2;
  config.link.propagation = 0;
  config.link.switch_latency = 0;
  core::Cluster cluster(config);
  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  ASSERT_FALSE(deployed.ok());
  EXPECT_NE(deployed.error().message.find("lookahead"), std::string::npos)
      << deployed.error().message;
}

struct WindowCounts {
  std::uint64_t executed = 0;
  std::uint64_t extended = 0;
};

std::vector<SimDuration> run_cluster_web(unsigned shards, int requests,
                                         std::uint64_t* cross_posts,
                                         WindowCounts* windows = nullptr) {
  core::ClusterConfig config;
  config.workers = 4;
  config.shards = shards;
  core::Cluster cluster(config);
  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  EXPECT_TRUE(deployed.ok());
  if (!deployed.ok()) return {};
  cluster.wait_until_ready();
  std::vector<SimDuration> latencies;
  for (int i = 0; i < requests; ++i) {
    auto response = cluster.invoke_and_wait(
        "web_server", workloads::encode_web_request(i & 3));
    EXPECT_TRUE(response.ok()) << "request " << i;
    latencies.push_back(response.ok() ? response.value().latency : -1);
  }
  if (cross_posts != nullptr) *cross_posts = cluster.sharded().cross_shard_posts();
  if (windows != nullptr) {
    windows->executed = cluster.sharded().windows_executed();
    windows->extended = cluster.sharded().windows_extended();
  }
  return latencies;
}

TEST(ShardedCluster, FourShardsMatchSingleShardLatencies) {
  // The tentpole's correctness bar: sharding is a *scheduling* change,
  // not a *model* change. The same cluster workload must produce the
  // same per-request latencies whether the island runs on 1 shard or 4.
  std::uint64_t cross_posts = 0;
  const auto one = run_cluster_web(1, 25, nullptr);
  const auto four = run_cluster_web(4, 25, &cross_posts);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "request " << i;
  }
  // The sharded run really exercised the cross-shard path.
  EXPECT_GT(cross_posts, 0u);
}

TEST(ShardedCluster, FixedShardCountIsDeterministic) {
  std::uint64_t posts_a = 0;
  std::uint64_t posts_b = 0;
  const auto a = run_cluster_web(4, 15, &posts_a);
  const auto b = run_cluster_web(4, 15, &posts_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(posts_a, posts_b);
}

TEST(ShardedCluster, WindowedRunIsBitReproducible) {
  // Two identical runs must agree event-for-event, including window and
  // post counts.
  std::uint64_t posts_a = 0;
  std::uint64_t posts_b = 0;
  WindowCounts windows_a;
  WindowCounts windows_b;
  const auto a = run_cluster_web(4, 15, &posts_a, &windows_a);
  const auto b = run_cluster_web(4, 15, &posts_b, &windows_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(posts_a, posts_b);
  EXPECT_EQ(windows_a.executed, windows_b.executed);
  EXPECT_GT(windows_a.executed, 0u);
  // A cluster declares no local-only node, so every shard's EOT is its
  // next event and no window ever extends.
  EXPECT_EQ(windows_a.extended, 0u);
}

TEST(ShardedCluster, WorkersRoundRobinOverWorkerShards) {
  // The master stack keeps shard 0 to itself and worker i lives on
  // shard 1 + i % (shards - 1).
  core::ClusterConfig config;
  config.workers = 4;
  config.shards = 3;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  EXPECT_EQ(cluster.network().shard_of(cluster.gateway().node()), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.network().shard_of(cluster.worker(i).node()),
              1u + static_cast<unsigned>(i % 2))
        << "worker " << i;
  }
}

TEST(ShardedMetrics, ConcurrentLabeledHistogramMergeFromShards) {
  // The scrape-time pattern the sharded monitor relies on: each shard
  // thread populates its own registry (the same labeled histogram
  // series plus a per-shard counter) in parallel, the coordinator joins
  // and folds them with merge_from. Runs under the TSan CI job, so any
  // unsynchronized sharing inside the registries would be flagged.
  constexpr int kShards = 4;
  constexpr int kObservations = 2000;
  std::vector<framework::MetricsRegistry> locals(kShards);
  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (int t = 0; t < kShards; ++t) {
    threads.emplace_back([&locals, t] {
      framework::MetricsRegistry& reg = locals[t];
      for (int i = 0; i < kObservations; ++i) {
        reg.histogram("rpc_latency_ns", {{"fn", "web"}})
            .observe(1000.0 * ((t * kObservations + i) % 64));
        reg.counter("shard_events_total",
                    {{"shard", std::to_string(t)}})
            .increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  framework::MetricsRegistry merged;
  for (const framework::MetricsRegistry& reg : locals) {
    merged.merge_from(reg);
  }

  // The shared labeled series folded bucket-wise across all shards.
  const auto& h = merged.histogram("rpc_latency_ns", {{"fn", "web"}});
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kShards) * kObservations);
  // Per-shard series stayed distinct.
  for (int t = 0; t < kShards; ++t) {
    EXPECT_EQ(merged
                  .counter("shard_events_total",
                           {{"shard", std::to_string(t)}})
                  .value(),
              static_cast<std::uint64_t>(kObservations))
        << "shard " << t;
  }
}

}  // namespace
}  // namespace lnic
