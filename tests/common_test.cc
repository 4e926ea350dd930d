// Unit and property tests for src/common: Result, Rng, Sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
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

}  // namespace
}  // namespace lnic
