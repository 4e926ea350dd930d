// Unit and property tests for src/common: Result, Rng, Sampler, buffers
// and their recycled storage, the id ring and the record pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/id_ring.h"
#include "common/pool.h"
#include "common/result.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace lnic {
namespace {

TEST(Types, DurationConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
}

TEST(Types, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(to_mib(3_MiB), 3.0);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Result<int> bad = make_error("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Status, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad = make_error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Sampler, BasicMoments) {
  Sampler s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Sampler, PercentileNearestRank) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
}

TEST(Sampler, EcdfMonotoneAndEndsAtOne) {
  Rng rng(3);
  Sampler s;
  for (int i = 0; i < 1000; ++i) s.add(rng.next_double() * 50);
  const auto curve = s.ecdf();
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Sampler, EcdfCollapsesDuplicates) {
  Sampler s;
  s.add(5.0);
  s.add(5.0);
  s.add(9.0);
  const auto curve = s.ecdf();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].first, 5.0);
  EXPECT_NEAR(curve[0].second, 2.0 / 3.0, 1e-12);
}

// Property sweep: percentiles are monotone in p for random samples.
class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  Rng rng(GetParam());
  Sampler s;
  const int n = 1 + static_cast<int>(rng.next_below(500));
  for (int i = 0; i < n; ++i) s.add(rng.next_double() * 1000 - 500);
  double prev = s.percentile(0);
  for (double p = 5; p <= 100; p += 5) {
    const double cur = s.percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Range(1, 21));

TEST(Utilization, FractionOfWindow) {
  UtilizationTracker u;
  u.add_busy(milliseconds(250));
  EXPECT_DOUBLE_EQ(u.utilization(seconds(1)), 0.25);
  EXPECT_DOUBLE_EQ(u.utilization(0), 0.0);
}

TEST(Counter, IncrementsByArbitraryAmounts) {
  Counter c("requests");
  c.increment();
  c.increment(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.name(), "requests");
}

// --- Buffer / BufferView: zero-copy payload plumbing ---

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(Buffer, AdoptTakesOwnershipWithoutCopying) {
  reset_copy_stats();
  auto bytes = iota_bytes(100);
  const std::uint8_t* storage = bytes.data();
  const Buffer::Ptr buf = Buffer::adopt(std::move(bytes));
  EXPECT_EQ(buf->data(), storage);  // same allocation, no byte moved
  EXPECT_EQ(buf->size(), 100u);
  EXPECT_EQ(copy_stats().bytes_copied, 0u);
}

TEST(Buffer, CopyOfIsCounted) {
  reset_copy_stats();
  const auto bytes = iota_bytes(64);
  const Buffer::Ptr buf = Buffer::copy_of(bytes.data(), bytes.size());
  EXPECT_EQ(buf->size(), 64u);
  EXPECT_EQ(copy_stats().bytes_copied, 64u);
  EXPECT_EQ(copy_stats().copies, 1u);
}

TEST(BufferView, SliceSharesStorageAndKeepsBufferAlive) {
  reset_copy_stats();
  BufferView whole(iota_bytes(100));
  BufferView mid = whole.slice(10, 30);
  EXPECT_EQ(mid.size(), 30u);
  EXPECT_EQ(mid.data(), whole.data() + 10);
  EXPECT_EQ(mid[0], 10);
  EXPECT_EQ(mid.back(), 39);
  EXPECT_EQ(copy_stats().bytes_copied, 0u);
  EXPECT_GE(copy_stats().bytes_shared, 30u);
  // Dropping the parent view must not invalidate the slice.
  whole = BufferView();
  EXPECT_EQ(mid[5], 15);
}

TEST(BufferView, VectorCopyConstructorIsCounted) {
  reset_copy_stats();
  const auto bytes = iota_bytes(48);
  BufferView copied(bytes);  // lvalue: must copy
  EXPECT_EQ(copied.size(), 48u);
  EXPECT_EQ(copy_stats().bytes_copied, 48u);
}

TEST(CopyStats, EachThreadKeepsItsOwnTallies) {
  // Simulations on different threads keep their copy tallies apart: a
  // second thread's slices and copies never show in this thread's.
  reset_copy_stats();
  BufferView whole(iota_bytes(64));
  (void)whole.slice(0, 8);
  const CopyStats mine = copy_stats();
  CopyStats theirs;
  std::thread([&theirs] {
    BufferView other(iota_bytes(100));
    (void)other.slice(10, 30);
    (void)other.slice(40, 20);
    (void)other.to_vector();
    theirs = copy_stats();
  }).join();
  const CopyStats after = copy_stats();
  EXPECT_EQ(after.bytes_shared, mine.bytes_shared);
  EXPECT_EQ(after.shares, mine.shares);
  EXPECT_EQ(after.bytes_copied, mine.bytes_copied);
  EXPECT_EQ(after.copies, mine.copies);
  EXPECT_EQ(theirs.bytes_shared, 50u);
  EXPECT_EQ(theirs.shares, 2u);
  EXPECT_EQ(theirs.bytes_copied, 100u);
  EXPECT_EQ(theirs.copies, 1u);
}

TEST(BufferView, EqualityComparesContents) {
  BufferView a(iota_bytes(16));
  BufferView b(iota_bytes(16));  // different buffer, same bytes
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == iota_bytes(16));
  EXPECT_FALSE(a == a.slice(0, 8));
}

TEST(Coalesce, ContiguousFragmentsMergeWithoutCopying) {
  reset_copy_stats();
  BufferView whole(iota_bytes(100));
  std::vector<BufferView> frags{whole.slice(0, 40), whole.slice(40, 40),
                                whole.slice(80, 20)};
  reset_copy_stats();
  const BufferView merged = coalesce(frags);
  EXPECT_EQ(merged.size(), 100u);
  EXPECT_EQ(merged.data(), whole.data());  // spanning view, same storage
  EXPECT_EQ(copy_stats().bytes_copied, 0u);
}

TEST(Coalesce, NonContiguousFragmentsFallBackToOneCopy) {
  BufferView a(iota_bytes(10));
  BufferView b(iota_bytes(10));
  reset_copy_stats();
  const BufferView merged = coalesce({a, b});
  EXPECT_EQ(merged.size(), 20u);
  EXPECT_EQ(copy_stats().bytes_copied, 20u);
  EXPECT_EQ(merged[0], 0);
  EXPECT_EQ(merged[10], 0);
}

TEST(Coalesce, OutOfOrderSlicesOfOneBufferStillCopy) {
  // Same buffer but wrong order: the spanning-view fast path must not
  // apply, or the reassembled body would be scrambled.
  BufferView whole(iota_bytes(20));
  const BufferView merged = coalesce({whole.slice(10, 10), whole.slice(0, 10)});
  EXPECT_EQ(merged.size(), 20u);
  EXPECT_EQ(merged[0], 10);
  EXPECT_EQ(merged[10], 0);
}

/// Empties this thread's free list of byte vectors.
void drain_spare_bytes() {
  for (std::size_t i = 0; i < kMaxSpareVectors; ++i) (void)recycled_bytes(0);
}

TEST(RecycledBytes, ReusedOnlyAfterTheLastViewDrops) {
  drain_spare_bytes();
  std::vector<std::uint8_t> bytes = recycled_bytes(64);
  EXPECT_TRUE(bytes.empty());
  EXPECT_GE(bytes.capacity(), 64u);
  bytes.assign(64, 7);
  const std::uint8_t* storage = bytes.data();
  BufferView whole(std::move(bytes));
  BufferView part = whole.slice(8, 8);
  whole = BufferView{};
  // `part` still views the storage: it must not be handed out.
  EXPECT_NE(recycled_bytes(64).data(), storage);
  EXPECT_EQ(part[0], 7);
  part = BufferView{};
  std::vector<std::uint8_t> again = recycled_bytes(16);
  EXPECT_EQ(again.data(), storage);
  EXPECT_TRUE(again.empty());  // contents never carry over
}

TEST(RecycledBytes, FreeListIsBoundedByCountAndSize) {
  drain_spare_bytes();
  // An oversized vector is freed, not kept.
  {
    BufferView big(std::vector<std::uint8_t>(kMaxSpareVectorBytes + 1, 1));
  }
  EXPECT_EQ(recycled_bytes(0).capacity(), 0u);
  // At most kMaxSpareVectors vectors come back.
  {
    std::vector<BufferView> views;
    for (std::size_t i = 0; i < kMaxSpareVectors + 10; ++i) {
      views.emplace_back(std::vector<std::uint8_t>(32, 1));
    }
  }
  std::size_t kept = 0;
  while (recycled_bytes(0).capacity() > 0) ++kept;
  EXPECT_EQ(kept, kMaxSpareVectors);
  // And at most kMaxSpareBytes of capacity.
  {
    std::vector<BufferView> views;
    for (std::size_t i = 0; i < 40; ++i) {
      views.emplace_back(std::vector<std::uint8_t>(kMaxSpareVectorBytes, 1));
    }
  }
  kept = 0;
  while (recycled_bytes(0).capacity() > 0) ++kept;
  EXPECT_EQ(kept, kMaxSpareBytes / kMaxSpareVectorBytes);
}

TEST(RecycledBytes, BuffersOutlivingTheirThreadsFreeListStillDrop) {
  // A thread_local view made before the thread's free list is destroyed
  // after it at thread exit; a static view is destroyed after the main
  // thread's free list at process exit. Both must drop cleanly.
  std::thread([] {
    thread_local BufferView held;
    held = BufferView(std::vector<std::uint8_t>(64, 1));
  }).join();
  static BufferView kept(std::vector<std::uint8_t>(64, 2));
  EXPECT_EQ(kept[0], 2);
}

TEST(IdRing, GrowsToTheLiveWindowAndForgetsFinishedIds) {
  IdRing<int> ring;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    const auto [id, value] = ring.add();
    *value = i;
    ids.push_back(id);
  }
  EXPECT_EQ(ids.front(), 1u);
  EXPECT_EQ(ids.back(), 40u);
  EXPECT_EQ(ring.size(), 40u);
  EXPECT_EQ(ring.capacity(), 64u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(ring.find(ids[i]), nullptr);
    EXPECT_EQ(*ring.find(ids[i]), static_cast<int>(i));
  }
  EXPECT_EQ(ring.take(7), 6);
  EXPECT_EQ(ring.find(7), nullptr);
  EXPECT_EQ(ring.find(0), nullptr);
  EXPECT_EQ(ring.find(41), nullptr);
  // Finish everything; a long run of ids that finish in order reuses
  // the slots without growing, and old ids stay unknown.
  for (std::uint64_t id = 1; id <= 40; ++id) {
    if (id != 7) ring.take(id);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = ring.add().first;
    EXPECT_EQ(ring.find(id - 64), nullptr);
    ring.take(id);
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 64u);
}

std::vector<int> contents(const BoundedRing<int>& ring) {
  return std::vector<int>(ring.begin(), ring.end());
}

TEST(BoundedRing, KeepsTheLatestOldestFirstAndCountsEvictions) {
  BoundedRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(contents(ring), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ring.evicted(), 0u);
  // Past the bound each push evicts the oldest, wrapping the storage.
  for (int i = 3; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(contents(ring), (std::vector<int>{6, 7, 8, 9}));
  EXPECT_EQ(ring.front(), 6);
  EXPECT_EQ(ring.back(), 9);
  EXPECT_EQ(ring[1], 7);
  EXPECT_EQ(ring.evicted(), 6u);

  // Shrinking a wrapped ring evicts its oldest entries at once.
  ring.set_capacity(2);
  EXPECT_EQ(contents(ring), (std::vector<int>{8, 9}));
  EXPECT_EQ(ring.evicted(), 8u);
  ring.push(10);
  EXPECT_EQ(contents(ring), (std::vector<int>{9, 10}));
  // Growing keeps everything and fills before evicting again.
  ring.set_capacity(3);
  ring.push(11);
  EXPECT_EQ(contents(ring), (std::vector<int>{9, 10, 11}));
  EXPECT_EQ(ring.evicted(), 9u);

  // Capacity 0 keeps nothing and counts every push.
  ring.set_capacity(0);
  ring.push(12);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.evicted(), 13u);
  ring.clear();
  EXPECT_EQ(ring.evicted(), 0u);
}

TEST(Pool, RecyclesObjectsWithTheirStorage) {
  Pool<std::vector<int>> pool;
  std::vector<int>* first = pool.take();
  first->assign(100, 1);
  pool.put(first);
  std::vector<int>* again = pool.take();
  EXPECT_EQ(again, first);  // LIFO
  EXPECT_GE(again->capacity(), 100u);
  std::vector<std::vector<int>*> out = {again};
  for (std::size_t i = 1; i < Pool<int>::kChunk + 1; ++i) {
    out.push_back(pool.take());
  }
  EXPECT_EQ(pool.size(), 2 * Pool<int>::kChunk);
  EXPECT_EQ(out.front()->size(), 100u);  // pointers stayed valid
  for (auto* object : out) pool.put(object);
  for (std::size_t i = 0; i < out.size(); ++i) pool.take();
  EXPECT_EQ(pool.size(), 2 * Pool<int>::kChunk);  // all reused
}

TEST(Pool, ParkedFieldsArePoisonedWhenAssertsAreOn) {
  struct Fields {
    std::uint64_t id = 1;
    const void* owner = nullptr;
  } fields;
  poison_parked(fields);
#ifndef NDEBUG
  std::uint64_t poison = 0;
  std::memset(&poison, kParkedPoison, sizeof(poison));
  EXPECT_EQ(fields.id, poison);
#else
  EXPECT_EQ(fields.id, 1u);
#endif
}

}  // namespace
}  // namespace lnic
