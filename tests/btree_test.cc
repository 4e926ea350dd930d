// Structural tests for the B+-tree backing the transactional store:
// split invariants, ordered iteration under random interleaved
// inserts, updates and lookups (cross-checked against std::map), and the
// NIC-resident node cache (LRU, invalidation, capacity-0 baseline).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "kvstore/btree.h"

namespace lnic::kvstore {
namespace {

void expect_invariants(const BPlusTree& tree) {
  std::string why;
  EXPECT_TRUE(tree.check_invariants(&why)) << why;
}

TEST(BTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_FALSE(tree.contains(7));
  expect_invariants(tree);
}

TEST(BTreeTest, InsertLookupUpdate) {
  BPlusTree tree(BTreeConfig{4});
  EXPECT_TRUE(tree.put(10, 100));
  EXPECT_TRUE(tree.put(20, 200));
  EXPECT_FALSE(tree.put(10, 111));  // update, not insert
  Value v = 0;
  ASSERT_TRUE(tree.get(10, &v));
  EXPECT_EQ(v, 111u);
  ASSERT_TRUE(tree.get(20, &v));
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(tree.size(), 2u);
  expect_invariants(tree);
}

TEST(BTreeTest, SequentialInsertSplitsAndStaysBalanced) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.put(k, k * 3));
    if (k % 97 == 0) expect_invariants(tree);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 3u);  // order 4 must have split many times
  expect_invariants(tree);
  for (Key k = 0; k < 1000; ++k) {
    Value v = 0;
    ASSERT_TRUE(tree.get(k, &v)) << "key " << k;
    EXPECT_EQ(v, k * 3);
  }
}

TEST(BTreeTest, RandomInterleavedAgainstStdMap) {
  BPlusTree tree(BTreeConfig{8});
  std::map<Key, Value> model;
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const Key k = rng.next_below(512);  // small space forces collisions
    if (rng.next_bool(0.4)) {
      Value v = 0;
      const auto it = model.find(k);
      ASSERT_EQ(tree.get(k, &v), it != model.end()) << "key " << k;
      if (it != model.end()) {
        EXPECT_EQ(v, it->second);
      }
    } else {
      const Value v = rng.next_u64();
      EXPECT_EQ(tree.put(k, v), model.emplace(k, v).second);
      model[k] = v;
    }
    if (step % 1999 == 0) expect_invariants(tree);
  }
  expect_invariants(tree);
  ASSERT_EQ(tree.size(), model.size());
  // Ordered iteration must match the model exactly.
  std::vector<std::pair<Key, Value>> out;
  tree.scan(0, model.size() + 10, &out);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(BTreeTest, ScanStartsAtLowerBoundAndCrossesLeaves) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 100; k += 2) tree.put(k, k + 1);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(tree.scan(11, 5, &out), 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().first, 12u);  // first key >= 11
  EXPECT_EQ(out.back().first, 20u);
  out.clear();
  EXPECT_EQ(tree.scan(95, 100, &out), 2u);  // clipped at the end
}

TEST(BTreeTest, PathForReportsRootToLeafOfCurrentHeight) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 500; ++k) tree.put(k, k);
  std::vector<PageId> path;
  tree.path_for(250, &path);
  EXPECT_EQ(path.size(), tree.height());
  // Scans that span leaves touch strictly more pages.
  std::vector<PageId> spath;
  tree.scan_path(250, 50, &spath);
  EXPECT_GT(spath.size(), path.size());
}

TEST(BTreeTest, DirtyAndFreedPagesAreReported) {
  BPlusTree tree(BTreeConfig{4});
  tree.put(1, 1);
  EXPECT_FALSE(tree.last_dirty().empty());
  // Fill until a split happens: the dirty set must then cover >1 page.
  const std::size_t before = tree.node_count();
  Key next = 2;
  while (tree.node_count() == before) {
    tree.put(next, next);
    ++next;
  }
  EXPECT_GE(tree.last_dirty().size(), 2u);
  // An update in place dirties only its leaf.
  tree.put(1, 2);
  EXPECT_EQ(tree.last_dirty().size(), 1u);
  expect_invariants(tree);
}

// ---------------------------------------------------------- NodeCache

TEST(NodeCacheTest, HitMissAndLruEviction) {
  NodeCache cache(2);
  EXPECT_FALSE(cache.access(1));  // miss
  cache.insert(1);
  EXPECT_TRUE(cache.access(1));  // hit
  cache.insert(2);
  EXPECT_TRUE(cache.access(1));  // 1 is now MRU
  cache.insert(3);               // evicts 2 (LRU)
  EXPECT_FALSE(cache.resident(2));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(NodeCacheTest, InvalidateDropsResidentPage) {
  NodeCache cache(4);
  cache.insert(7);
  EXPECT_TRUE(cache.invalidate(7));
  EXPECT_FALSE(cache.resident(7));
  EXPECT_FALSE(cache.invalidate(7));  // second invalidate is a no-op
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(NodeCacheTest, CapacityZeroIsHostBaseline) {
  NodeCache cache(0);
  cache.insert(1);
  EXPECT_FALSE(cache.access(1));  // never resident, always a miss
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 0.0);
}

}  // namespace
}  // namespace lnic::kvstore
