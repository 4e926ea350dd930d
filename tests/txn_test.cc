// Tests for 2PL transactions over the NIC-resident B+-tree store: lock
// table semantics (NO_WAIT aborts, WAIT_DIE wound ordering), end-to-end
// commit/abort behavior, the retry livelock bound, NIC cache coherence,
// and the networked GET/SET/TXN wire path.
#include <gtest/gtest.h>

#include "kvstore/txn.h"
#include "kvstore/workload.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::kvstore {
namespace {

using net::Packet;
using net::PacketKind;

TxnTimestamp ts(SimTime t, std::uint64_t seq = 0) {
  return TxnTimestamp{t, seq};
}

// ------------------------------------------------------------ LockTable

TEST(LockTableTest, SharedLocksAreCompatible) {
  LockTable table;
  EXPECT_EQ(table.try_acquire(1, 10, LockMode::kShared, ts(1),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  EXPECT_EQ(table.try_acquire(1, 11, LockMode::kShared, ts(2),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  EXPECT_EQ(table.locked_keys(), 1u);
}

TEST(LockTableTest, NoWaitConflictAbortsImmediately) {
  LockTable table;
  ASSERT_EQ(table.try_acquire(1, 10, LockMode::kExclusive, ts(1),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  // Both shared and exclusive requests die on the spot — never kWait.
  EXPECT_EQ(table.try_acquire(1, 11, LockMode::kShared, ts(2),
                              LockProtocol::kNoWait),
            LockOutcome::kAbort);
  EXPECT_EQ(table.try_acquire(1, 11, LockMode::kExclusive, ts(2),
                              LockProtocol::kNoWait),
            LockOutcome::kAbort);
  EXPECT_EQ(table.waiting(), 0u);
}

TEST(LockTableTest, ReentrantAndUpgrade) {
  LockTable table;
  ASSERT_EQ(table.try_acquire(1, 10, LockMode::kShared, ts(1),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  // Re-entrant shared and sole-holder upgrade both succeed.
  EXPECT_EQ(table.try_acquire(1, 10, LockMode::kShared, ts(1),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  EXPECT_EQ(table.try_acquire(1, 10, LockMode::kExclusive, ts(1),
                              LockProtocol::kNoWait),
            LockOutcome::kGranted);
  // The upgrade is real: another shared request now conflicts.
  EXPECT_EQ(table.try_acquire(1, 11, LockMode::kShared, ts(2),
                              LockProtocol::kNoWait),
            LockOutcome::kAbort);
}

TEST(LockTableTest, WaitDieOlderWaitsYoungerDies) {
  LockTable table;
  // Younger txn 20 (ts 5) holds; older txn 10 (ts 1) waits.
  ASSERT_EQ(table.try_acquire(1, 20, LockMode::kExclusive, ts(5),
                              LockProtocol::kWaitDie),
            LockOutcome::kGranted);
  EXPECT_EQ(table.try_acquire(1, 10, LockMode::kExclusive, ts(1),
                              LockProtocol::kWaitDie),
            LockOutcome::kWait);
  EXPECT_EQ(table.waiting(), 1u);
  // An even younger txn 30 (ts 9) dies: blockers include the holder.
  EXPECT_EQ(table.try_acquire(1, 30, LockMode::kExclusive, ts(9),
                              LockProtocol::kWaitDie),
            LockOutcome::kAbort);
  // Release the holder: the waiting older txn is granted, exactly once.
  const std::vector<TxnId> granted = table.release_all(20);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 10u);
  // Determinism probe: txn 10 now holds exclusively.
  EXPECT_EQ(table.try_acquire(1, 40, LockMode::kShared, ts(20),
                              LockProtocol::kWaitDie),
            LockOutcome::kAbort);
}

TEST(LockTableTest, WaitDieQueuedWaiterBlocksYoungerRequester) {
  LockTable table;
  // Holder ts 3; waiter ts 1 (older -> waits). A requester with ts 2 is
  // older than the holder but younger than the queued waiter: it must
  // die, otherwise a young->old wait edge could form through the queue.
  ASSERT_EQ(table.try_acquire(1, 30, LockMode::kExclusive, ts(3),
                              LockProtocol::kWaitDie),
            LockOutcome::kGranted);
  ASSERT_EQ(table.try_acquire(1, 10, LockMode::kExclusive, ts(1),
                              LockProtocol::kWaitDie),
            LockOutcome::kWait);
  EXPECT_EQ(table.try_acquire(1, 20, LockMode::kExclusive, ts(2),
                              LockProtocol::kWaitDie),
            LockOutcome::kAbort);
}

TEST(LockTableTest, ReleaseGrantsSharedBatch) {
  LockTable table;
  ASSERT_EQ(table.try_acquire(1, 30, LockMode::kExclusive, ts(9),
                              LockProtocol::kWaitDie),
            LockOutcome::kGranted);
  ASSERT_EQ(table.try_acquire(1, 10, LockMode::kShared, ts(1),
                              LockProtocol::kWaitDie),
            LockOutcome::kWait);
  ASSERT_EQ(table.try_acquire(1, 20, LockMode::kShared, ts(2),
                              LockProtocol::kWaitDie),
            LockOutcome::kWait);
  const std::vector<TxnId> granted = table.release_all(30);
  // Both compatible shared waiters are granted, oldest first.
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0], 10u);
  EXPECT_EQ(granted[1], 20u);
  EXPECT_EQ(table.waiting(), 0u);
}

// ------------------------------------------------------------- TxnStore

struct StoreRig {
  sim::Simulator sim;
  net::Network network;
  TxnStore store;

  explicit StoreRig(TxnStoreConfig config = {})
      : network(sim), store(sim, network, config) {}
};

TEST(TxnStoreTest, SingleOpReadCommits) {
  StoreRig rig;
  rig.store.load(5, 55);
  TxnResult result;
  bool done = false;
  TxnRequest req;
  req.ops.push_back({OpKind::kRead, 5, 0, 0});
  rig.store.execute(std::move(req), [&](const TxnResult& r) {
    result = r;
    done = true;
  });
  rig.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(result.reads, 1u);
  EXPECT_EQ(result.read_xor, 55u);
  EXPECT_EQ(rig.store.stats().commits, 1u);
  EXPECT_EQ(rig.store.stats().aborts, 0u);
}

TEST(TxnStoreTest, ReadYourWritesAndCommitApplies) {
  StoreRig rig;
  rig.store.load(1, 10);
  bool done = false;
  TxnRequest req;
  req.ops.push_back({OpKind::kWrite, 1, 99, 0});
  req.ops.push_back({OpKind::kRead, 1, 0, 0});  // sees the buffered 99
  rig.store.execute(std::move(req), [&](const TxnResult& r) {
    EXPECT_EQ(r.status, TxnStatus::kCommitted);
    EXPECT_EQ(r.read_xor, 99u);
    done = true;
  });
  rig.sim.run();
  ASSERT_TRUE(done);
  Value v = 0;
  ASSERT_TRUE(rig.store.tree().get(1, &v));
  EXPECT_EQ(v, 99u);  // commit applied the buffered write
}

TEST(TxnStoreTest, AbortedAttemptsLeaveNoPartialWrites) {
  TxnStoreConfig config;
  config.protocol = LockProtocol::kNoWait;
  config.max_retries = 0;  // first conflict is final
  StoreRig rig(config);
  rig.store.load(1, 10);
  rig.store.load(2, 20);

  // Txn A grabs key 1's lock synchronously at submission; txn B then
  // conflicts on key 1, aborts, and must leave both keys A's.
  TxnRequest a;
  a.ops.push_back({OpKind::kWrite, 1, 111, 0});
  a.ops.push_back({OpKind::kWrite, 2, 222, 0});
  TxnRequest b;
  b.ops.push_back({OpKind::kWrite, 1, 999, 0});
  TxnResult rb;
  bool a_done = false, b_done = false;
  rig.store.execute(std::move(a), [&](const TxnResult&) { a_done = true; });
  rig.store.execute(std::move(b), [&](const TxnResult& r) {
    rb = r;
    b_done = true;
  });
  rig.sim.run();
  ASSERT_TRUE(a_done && b_done);
  EXPECT_EQ(rb.status, TxnStatus::kAborted);
  EXPECT_EQ(rig.store.stats().retries_exhausted, 1u);
  Value v = 0;
  ASSERT_TRUE(rig.store.tree().get(1, &v));
  EXPECT_EQ(v, 111u);  // A's value, not B's
  ASSERT_TRUE(rig.store.tree().get(2, &v));
  EXPECT_EQ(v, 222u);
}

TEST(TxnStoreTest, NoWaitContentionRetriesToCommit) {
  TxnStoreConfig config;
  config.protocol = LockProtocol::kNoWait;
  config.max_retries = 64;  // budget is not what's under test here
  StoreRig rig(config);
  for (Key k = 0; k < 8; ++k) rig.store.load(k, 0);

  // 16 concurrent RMW txns over 2 hot keys: heavy conflict, but every
  // one must eventually commit within the retry budget.
  int committed = 0;
  for (int i = 0; i < 16; ++i) {
    TxnRequest req;
    req.ops.push_back({OpKind::kRmw, static_cast<Key>(i % 2), 1, 0});
    req.ops.push_back({OpKind::kRmw, static_cast<Key>((i + 1) % 2), 1, 0});
    rig.store.execute(std::move(req), [&](const TxnResult& r) {
      if (r.status == TxnStatus::kCommitted) ++committed;
    });
  }
  rig.sim.run();
  EXPECT_EQ(committed, 16);
  EXPECT_EQ(rig.store.stats().retries_exhausted, 0u);
  EXPECT_GT(rig.store.stats().aborts, 0u);  // contention really happened
  // Each key was incremented by every txn exactly once.
  Value v0 = 0, v1 = 0;
  rig.store.tree().get(0, &v0);
  rig.store.tree().get(1, &v1);
  EXPECT_EQ(v0, 16u);
  EXPECT_EQ(v1, 16u);
}

TEST(TxnStoreTest, WaitDieLivelockBound) {
  // WAIT_DIE with retained timestamps: an aborted txn ages until it is
  // the oldest contender, so even at maximal conflict every txn finishes
  // well within the retry budget (the livelock bound).
  TxnStoreConfig config;
  config.protocol = LockProtocol::kWaitDie;
  config.max_retries = 32;
  StoreRig rig(config);
  rig.store.load(0, 0);
  rig.store.load(1, 0);

  int committed = 0;
  std::uint32_t max_retries_seen = 0;
  for (int i = 0; i < 24; ++i) {
    TxnRequest req;
    // Opposite lock orders — the classic deadlock shape.
    req.ops.push_back({OpKind::kRmw, static_cast<Key>(i % 2), 1, 0});
    req.ops.push_back({OpKind::kRmw, static_cast<Key>(1 - i % 2), 1, 0});
    rig.store.execute(std::move(req), [&](const TxnResult& r) {
      if (r.status == TxnStatus::kCommitted) ++committed;
      max_retries_seen = std::max(max_retries_seen, r.retries);
    });
  }
  rig.sim.run();  // termination itself proves deadlock freedom
  EXPECT_EQ(committed, 24);
  EXPECT_EQ(rig.store.stats().retries_exhausted, 0u);
  EXPECT_LT(max_retries_seen, 32u);
  Value v0 = 0, v1 = 0;
  rig.store.tree().get(0, &v0);
  rig.store.tree().get(1, &v1);
  EXPECT_EQ(v0 + v1, 48u);
}

TEST(TxnStoreTest, WaitDieWaitsAreRecorded) {
  TxnStoreConfig config;
  config.protocol = LockProtocol::kWaitDie;
  StoreRig rig(config);
  rig.store.load(0, 0);
  int committed = 0;
  for (int i = 0; i < 8; ++i) {
    TxnRequest req;
    req.ops.push_back({OpKind::kRmw, 0, 1, 0});
    rig.store.execute(std::move(req), [&](const TxnResult& r) {
      if (r.status == TxnStatus::kCommitted) ++committed;
    });
  }
  rig.sim.run();
  EXPECT_EQ(committed, 8);
  Value v = 0;
  rig.store.tree().get(0, &v);
  EXPECT_EQ(v, 8u);
  // Single-key RMW pile-up under WAIT_DIE: older txns waited in line.
  EXPECT_GT(rig.store.stats().lock_waits, 0u);
}

TEST(TxnStoreTest, CacheHitsWarmUpAndWritebackInvalidates) {
  TxnStoreConfig config;
  config.nic_cache_nodes = 64;
  StoreRig rig(config);
  for (Key k = 0; k < 64; ++k) rig.store.load(k, k);

  auto read_key = [&](Key k) {
    TxnRequest req;
    req.ops.push_back({OpKind::kRead, k, 0, 0});
    rig.store.execute(std::move(req), [](const TxnResult&) {});
    rig.sim.run();
  };
  read_key(7);
  const auto cold = rig.store.cache_stats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.hits, 0u);
  read_key(7);  // same path again: every page is now resident
  const auto warm = rig.store.cache_stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GT(warm.hits, 0u);

  // A committed write to key 7's leaf invalidates the cached page...
  TxnRequest w;
  w.ops.push_back({OpKind::kWrite, 7, 1, 0});
  rig.store.execute(std::move(w), [](const TxnResult&) {});
  rig.sim.run();
  EXPECT_GT(rig.store.cache_stats().invalidations, 0u);
  // ...so the next read of the same path misses again (re-fetch).
  const auto before = rig.store.cache_stats();
  read_key(7);
  EXPECT_GT(rig.store.cache_stats().misses, before.misses);
}

TEST(TxnStoreTest, HostBaselineNeverCaches) {
  TxnStoreConfig config;
  config.nic_cache_nodes = 0;
  StoreRig rig(config);
  for (Key k = 0; k < 16; ++k) rig.store.load(k, k);
  for (int round = 0; round < 3; ++round) {
    TxnRequest req;
    req.ops.push_back({OpKind::kRead, 3, 0, 0});
    rig.store.execute(std::move(req), [](const TxnResult&) {});
    rig.sim.run();
  }
  EXPECT_EQ(rig.store.cache_stats().hits, 0u);
  EXPECT_GT(rig.store.cache_stats().misses, 0u);
  EXPECT_GT(rig.store.host_stats().reads, 0u);  // every page over RDMA
}

TEST(TxnStoreTest, NetworkedGetSetAndTxnWirePath) {
  StoreRig rig;
  rig.store.load(40, 4000);

  std::vector<Packet> replies;
  const NodeId client = rig.network.attach([&](const Packet& p) {
    if (p.kind == PacketKind::kKvResponse) replies.push_back(p);
  });

  auto send = [&](WorkloadId op, std::vector<std::uint8_t> body,
                  RequestId token) {
    Packet p;
    p.src = client;
    p.dst = rig.store.node();
    p.kind = PacketKind::kKvRequest;
    p.lambda.workload_id = op;
    p.lambda.request_id = token;
    p.payload = std::move(body);
    rig.network.send(std::move(p));
  };
  auto u64le = [](std::uint64_t a, std::uint64_t b) {
    std::vector<std::uint8_t> body(16);
    for (int i = 0; i < 8; ++i) {
      body[i] = static_cast<std::uint8_t>(a >> (8 * i));
      body[8 + i] = static_cast<std::uint8_t>(b >> (8 * i));
    }
    return body;
  };

  send(TxnStore::kOpGet, u64le(40, 0), 1);
  send(TxnStore::kOpSet, u64le(41, 4100), 2);
  TxnRequest txn;
  txn.ops.push_back({OpKind::kRead, 40, 0, 0});
  txn.ops.push_back({OpKind::kRmw, 41, 1, 0});
  send(TxnStore::kOpTxn, TxnStore::encode_txn(txn), 3);
  rig.sim.run();

  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(rig.store.stats().gets, 1u);
  EXPECT_EQ(rig.store.stats().sets, 1u);
  EXPECT_EQ(rig.store.stats().txns, 1u);
  auto value_of = [](const Packet& p, std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8 && at + i < p.payload.size(); ++i) {
      v |= static_cast<std::uint64_t>(p.payload[at + i]) << (8 * i);
    }
    return v;
  };
  for (const Packet& p : replies) {
    switch (p.lambda.request_id) {
      case 1:  // GET 40 -> 4000
        EXPECT_EQ(value_of(p, 0), 4000u);
        break;
      case 2:  // SET echoes the written value
        EXPECT_EQ(value_of(p, 0), 4100u);
        break;
      case 3: {  // TXN reply [status][retries][reads u16][xor u64]
        ASSERT_EQ(p.payload.size(), 12u);
        EXPECT_EQ(p.payload[0],
                  static_cast<std::uint8_t>(TxnStatus::kCommitted));
        EXPECT_EQ(p.payload[2], 2u);  // two values read
        EXPECT_EQ(value_of(p, 4), 4000ull ^ 4100ull);
        break;
      }
      default:
        FAIL() << "unexpected reply token";
    }
  }
  // The TXN's RMW really incremented key 41.
  Value v = 0;
  ASSERT_TRUE(rig.store.tree().get(41, &v));
  EXPECT_EQ(v, 4101u);
}

TEST(TxnStoreTest, TxnWithUnknownOpKindIsDroppedWithoutLocking) {
  // Kind 3 is unassigned and 9 lies past the last OpKind. The decoder
  // drops the whole request, as it drops an unknown workload_id: no
  // reply, no count, no lock.
  StoreRig rig;
  rig.store.load(40, 4000);
  std::vector<Packet> replies;
  const NodeId client = rig.network.attach([&](const Packet& p) {
    if (p.kind == PacketKind::kKvResponse) replies.push_back(p);
  });
  for (const std::uint8_t kind : {3, 9}) {
    TxnRequest txn;
    txn.ops.push_back({OpKind::kRead, 40, 0, 0});
    txn.ops.push_back({OpKind::kWrite, 40, 1, 0});
    std::vector<std::uint8_t> body = TxnStore::encode_txn(txn);
    body[2 + 19] = kind;  // the second op's kind byte
    Packet p;
    p.src = client;
    p.dst = rig.store.node();
    p.kind = PacketKind::kKvRequest;
    p.lambda.workload_id = TxnStore::kOpTxn;
    p.lambda.request_id = kind;
    p.payload = std::move(body);
    rig.network.send(std::move(p));
  }
  rig.sim.run();
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(rig.store.stats().txns, 0u);
  EXPECT_EQ(rig.store.inflight(), 0u);

  // A NO_WAIT writer of the same key commits at its first attempt, so
  // no lock on it was left behind.
  TxnRequest write;
  write.ops.push_back({OpKind::kWrite, 40, 41, 0});
  TxnResult result;
  rig.store.execute(std::move(write), [&](const TxnResult& r) { result = r; });
  rig.sim.run();
  EXPECT_EQ(result.status, TxnStatus::kCommitted);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(rig.store.stats().aborts, 0u);
}

// ------------------------------------------------------------ Workloads

TEST(WorkloadTest, YcsbMixShapes) {
  for (const YcsbMix mix : {YcsbMix::kA, YcsbMix::kB, YcsbMix::kC,
                            YcsbMix::kD, YcsbMix::kE, YcsbMix::kF}) {
    YcsbConfig config;
    config.mix = mix;
    config.records = 1 << 10;
    config.seed = 7;
    YcsbWorkload workload(config);
    std::uint64_t reads = 0, writes = 0, scans = 0, inserts = 0, rmws = 0;
    for (int i = 0; i < 500; ++i) {
      for (const TxnOp& op : workload.next().ops) {
        switch (op.kind) {
          case OpKind::kRead: ++reads; break;
          case OpKind::kWrite: ++writes; break;
          case OpKind::kScan: ++scans; break;
          case OpKind::kInsert: ++inserts; break;
          case OpKind::kRmw: ++rmws; break;
        }
      }
    }
    switch (mix) {
      case YcsbMix::kA:
        EXPECT_GT(reads, 0u);
        EXPECT_GT(writes, reads / 2);  // ~50/50
        break;
      case YcsbMix::kB:
        EXPECT_GT(reads, writes * 8);  // ~95/5
        break;
      case YcsbMix::kC:
        EXPECT_EQ(writes + scans + inserts + rmws, 0u);
        break;
      case YcsbMix::kD:
        EXPECT_GT(reads, 0u);
        EXPECT_GT(inserts, 0u);
        break;
      case YcsbMix::kE:
        EXPECT_GT(scans, 0u);
        EXPECT_GT(inserts, 0u);
        break;
      case YcsbMix::kF:
        EXPECT_GT(rmws, reads / 4);  // ~50/50 read/RMW
        break;
    }
  }
}

TEST(WorkloadTest, YcsbIsDeterministicPerSeed) {
  YcsbConfig config;
  config.mix = YcsbMix::kA;
  config.seed = 99;
  YcsbWorkload a(config), b(config);
  for (int i = 0; i < 100; ++i) {
    const TxnRequest ra = a.next(), rb = b.next();
    ASSERT_EQ(ra.ops.size(), rb.ops.size());
    for (std::size_t j = 0; j < ra.ops.size(); ++j) {
      EXPECT_EQ(ra.ops[j].kind, rb.ops[j].kind);
      EXPECT_EQ(ra.ops[j].key, rb.ops[j].key);
      EXPECT_EQ(ra.ops[j].value, rb.ops[j].value);
    }
  }
}

TEST(WorkloadTest, TpccNewOrderShape) {
  TpccLiteConfig config;
  config.warehouses = 2;
  TpccLiteWorkload workload(config);
  StoreRig rig;
  workload.populate(&rig.store);
  EXPECT_GT(rig.store.tree().size(), TpccLiteWorkload::kItems);
  for (int i = 0; i < 50; ++i) {
    const TxnRequest req = workload.next_order();
    // 1 district RMW + (read+RMW) per line + 1 order insert.
    ASSERT_GE(req.ops.size(), 1u + 2u * 5u + 1u);
    ASSERT_LE(req.ops.size(), 1u + 2u * 15u + 1u);
    EXPECT_EQ(req.ops.front().kind, OpKind::kRmw);
    EXPECT_EQ(req.ops.back().kind, OpKind::kInsert);
  }
}

TEST(WorkloadTest, TpccNewOrdersAllCommitSingleClient) {
  TpccLiteConfig config;
  config.warehouses = 1;
  TpccLiteWorkload workload(config);
  TxnStoreConfig store_config;
  store_config.max_retries = 64;  // 20 concurrent new-orders, 10 districts
  StoreRig rig(store_config);
  workload.populate(&rig.store);
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    rig.store.execute(workload.next_order(), [&](const TxnResult& r) {
      if (r.status == TxnStatus::kCommitted) ++committed;
    });
  }
  rig.sim.run();
  EXPECT_EQ(committed, 20);
  EXPECT_EQ(rig.store.stats().retries_exhausted, 0u);
}

}  // namespace
}  // namespace lnic::kvstore
