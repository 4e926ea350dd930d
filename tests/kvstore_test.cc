// Tests for the cache server (LRU, GET/SET over the fabric) and the
// etcd-like replicated store (puts, lists, watches, leader failover).
#include <gtest/gtest.h>

#include "kvstore/cache_server.h"
#include "kvstore/etcd.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::kvstore {
namespace {

using net::Packet;
using net::PacketKind;

Packet kv_request(NodeId src, NodeId dst, bool is_set, std::uint64_t key,
                  std::uint64_t value, RequestId token) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = PacketKind::kKvRequest;
  p.lambda.workload_id = is_set ? 1 : 0;
  p.lambda.request_id = token;
  std::vector<std::uint8_t> body(16);
  for (int i = 0; i < 8; ++i) {
    body[i] = static_cast<std::uint8_t>(key >> (8 * i));
    body[8 + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  p.payload = std::move(body);
  return p;
}

std::uint64_t reply_value(const Packet& p) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && i < p.payload.size(); ++i) {
    v |= static_cast<std::uint64_t>(p.payload[i]) << (8 * i);
  }
  return v;
}

TEST(CacheServer, DirectPutGet) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheServer cache(sim, network);
  cache.put(1, 100);
  cache.put(2, 200);
  std::uint64_t v = 0;
  EXPECT_TRUE(cache.get(1, v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(cache.get(2, v));
  EXPECT_EQ(v, 200u);
  EXPECT_FALSE(cache.get(3, v));
}

TEST(CacheServer, LruEvictsOldest) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheConfig config;
  config.capacity = 3;
  CacheServer cache(sim, network, config);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  std::uint64_t v;
  EXPECT_TRUE(cache.get(1, v));  // touch 1: now 2 is LRU
  cache.put(4, 40);              // evicts 2
  EXPECT_FALSE(cache.get(2, v));
  EXPECT_TRUE(cache.get(1, v));
  EXPECT_TRUE(cache.get(4, v));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheServer, PutOfAnExistingKeyTouchesIt) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheConfig config;
  config.capacity = 3;
  CacheServer cache(sim, network, config);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  cache.put(1, 11);  // touch 1 through put: now 2 is LRU
  cache.put(4, 40);  // evicts 2
  std::uint64_t v = 0;
  EXPECT_FALSE(cache.get(2, v));
  EXPECT_TRUE(cache.get(1, v));
  EXPECT_EQ(v, 11u);
  cache.put(5, 50);  // 3 is LRU now (1 and 4 were read or written later)
  EXPECT_FALSE(cache.get(3, v));
  EXPECT_TRUE(cache.get(4, v));
  EXPECT_TRUE(cache.get(5, v));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(CacheServer, DirectAccessorsCountStatsLikeNetworkedPath) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheServer cache(sim, network);
  cache.put(1, 100);
  std::uint64_t v = 0;
  EXPECT_TRUE(cache.get(1, v));
  EXPECT_FALSE(cache.get(2, v));
  // The direct path maintains CacheStats exactly like the fabric path.
  EXPECT_EQ(cache.stats().sets, 1u);
  EXPECT_EQ(cache.stats().gets, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheServer, NetworkedSetThenGet) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheServer cache(sim, network);
  std::vector<Packet> replies;
  const NodeId client =
      network.attach([&](const Packet& p) { replies.push_back(p); });
  network.send(kv_request(client, cache.node(), true, 7, 777, 1));
  sim.run();
  network.send(kv_request(client, cache.node(), false, 7, 0, 2));
  sim.run();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, PacketKind::kKvResponse);
  EXPECT_EQ(reply_value(replies[1]), 777u);
  EXPECT_EQ(cache.stats().sets, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheServer, MissReturnsZero) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheServer cache(sim, network);
  std::vector<Packet> replies;
  const NodeId client =
      network.attach([&](const Packet& p) { replies.push_back(p); });
  network.send(kv_request(client, cache.node(), false, 404, 0, 9));
  sim.run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(reply_value(replies[0]), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheServer, ServiceTimeOrdersReplies) {
  sim::Simulator sim;
  net::Network network(sim);
  CacheServer cache(sim, network);
  std::vector<SimTime> times;
  const NodeId client =
      network.attach([&](const Packet&) { times.push_back(sim.now()); });
  network.send(kv_request(client, cache.node(), false, 1, 0, 1));
  sim.run();
  // GET service (4 us) + two fabric traversals ≈ > 6 us.
  ASSERT_EQ(times.size(), 1u);
  EXPECT_GT(times[0], microseconds(6));
}

TEST(Etcd, PutGetAfterElection) {
  sim::Simulator sim;
  EtcdStore store(sim, 3);
  store.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(store.put("lambda/1/node", "worker-2").ok());
  sim.run_until(seconds(3));
  const auto v = store.get("lambda/1/node");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "worker-2");
}

TEST(Etcd, PutFailsBeforeElection) {
  sim::Simulator sim;
  EtcdStore store(sim, 3);
  store.start();
  EXPECT_FALSE(store.put("k", "v").ok());  // no leader yet
}

TEST(Etcd, ListByPrefix) {
  sim::Simulator sim;
  EtcdStore store(sim, 3);
  store.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(store.put("lambda/1", "a").ok());
  ASSERT_TRUE(store.put("lambda/2", "b").ok());
  ASSERT_TRUE(store.put("node/1", "c").ok());
  sim.run_until(seconds(3));
  const auto entries = store.list("lambda/");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "lambda/1");
  EXPECT_EQ(entries[1].first, "lambda/2");
}

TEST(Etcd, DeleteRemovesKey) {
  sim::Simulator sim;
  EtcdStore store(sim, 3);
  store.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(store.put("k", "v").ok());
  sim.run_until(seconds(3));
  ASSERT_TRUE(store.remove("k").ok());
  sim.run_until(seconds(4));
  EXPECT_FALSE(store.get("k").has_value());
}

TEST(Etcd, WatchFiresOnPrefix) {
  sim::Simulator sim;
  EtcdStore store(sim, 3);
  std::vector<std::string> seen;
  store.watch("lambda/", [&](const std::string& k, const std::string&) {
    seen.push_back(k);
  });
  store.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(store.put("lambda/9", "x").ok());
  ASSERT_TRUE(store.put("other/1", "y").ok());
  sim.run_until(seconds(3));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "lambda/9");
}

TEST(Etcd, SurvivesLeaderFailover) {
  sim::Simulator sim;
  EtcdStore store(sim, 5);
  store.start();
  sim.run_until(seconds(2));
  ASSERT_TRUE(store.put("persistent", "value").ok());
  sim.run_until(seconds(3));
  raft::RaftNode* leader = store.cluster().leader();
  ASSERT_NE(leader, nullptr);
  leader->stop();
  sim.run_until(seconds(6));
  ASSERT_TRUE(store.put("after", "failover").ok());
  sim.run_until(seconds(8));
  EXPECT_EQ(store.get("persistent").value_or(""), "value");
  EXPECT_EQ(store.get("after").value_or(""), "failover");
}

}  // namespace
}  // namespace lnic::kvstore
