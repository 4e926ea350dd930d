// Tests for the discrete-event engine: ordering, cancellation, timers,
// the ServerPool resource, and determinism properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace lnic::sim {
namespace {

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  SimTime inner_time = -1;
  sim.schedule(100, [&] {
    sim.schedule(50, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, 150);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports false
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(20, [&] { ++count; });
  sim.schedule(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] { ++count; });
  sim.schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule(10, [&] {
    sim.schedule(0, [&] { EXPECT_EQ(sim.now(), 10); });
  });
  sim.run();
}

TEST(PeriodicTimer, FiresUntilStopped) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 100, [&] { ++fires; });
  timer.start();
  sim.run_until(1000);
  EXPECT_EQ(fires, 10);
  timer.stop();
  sim.run_until(2000);
  EXPECT_EQ(fires, 10);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ServerPool, SingleServerSerializesJobs) {
  Simulator sim;
  ServerPool pool(sim, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    pool.submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(pool.completed(), 3u);
  EXPECT_EQ(pool.busy_time(), 300);
}

TEST(ServerPool, ParallelServersOverlap) {
  Simulator sim;
  ServerPool pool(sim, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    pool.submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  for (SimTime t : completions) EXPECT_EQ(t, 100);
}

TEST(ServerPool, QueueingDelayRecorded) {
  Simulator sim;
  ServerPool pool(sim, 1);
  pool.submit(100);
  pool.submit(100);
  sim.run();
  ASSERT_EQ(pool.wait_samples().count(), 2u);
  EXPECT_DOUBLE_EQ(pool.wait_samples().samples()[0], 0.0);
  EXPECT_DOUBLE_EQ(pool.wait_samples().samples()[1], 100.0);
}

// Property: with k servers and n identical jobs, makespan = ceil(n/k)*s.
class PoolMakespanTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PoolMakespanTest, MakespanMatchesTheory) {
  const auto [servers, jobs] = GetParam();
  Simulator sim;
  ServerPool pool(sim, static_cast<std::uint32_t>(servers));
  const SimDuration service = 50;
  for (int i = 0; i < jobs; ++i) pool.submit(service);
  sim.run();
  const SimTime expected = ((jobs + servers - 1) / servers) * service;
  EXPECT_EQ(sim.now(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PoolMakespanTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 56),
                       ::testing::Values(1, 8, 100)));

// --- Engine edge cases: arena recycling, cancellation corners, wheel ---

TEST(Simulator, CancelInsideRunningHandler) {
  Simulator sim;
  bool victim_ran = false;
  const EventId victim = sim.schedule(20, [&] { victim_ran = true; });
  sim.schedule(10, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(5, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, SelfCancelInsideHandlerReturnsFalse) {
  // The slot is retired before the closure runs, so an event that tries
  // to cancel itself learns (correctly) that it already fired.
  Simulator sim;
  EventId self = kInvalidEvent;
  bool cancel_result = true;
  self = sim.schedule(5, [&] { cancel_result = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancel_result);
}

TEST(Simulator, SlotRecyclingKeepsArenaSmall) {
  // Schedule/dispatch churn far larger than the in-flight set must not
  // grow the arena: freed slots are recycled through the free list.
  Simulator sim;
  int live = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 8; ++i) {
      sim.schedule(i, [&] { ++live; });
    }
    sim.run();
  }
  EXPECT_EQ(live, 8000);
  EXPECT_LE(sim.arena_slots(), 8u);
}

TEST(Simulator, StaleIdCannotCancelRecycledSlot) {
  // After an event fires, its slot is reused by a new event; the old
  // EventId carries a stale generation and must not cancel the newcomer.
  Simulator sim;
  const EventId old_id = sim.schedule(1, [] {});
  sim.run();
  bool ran = false;
  const EventId new_id = sim.schedule(1, [&] { ran = true; });
  // Same slot, different generation.
  EXPECT_EQ(old_id >> 32, new_id >> 32);
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(sim.cancel(old_id));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, PendingTracksLiveEventsExactly) {
  Simulator sim;
  EXPECT_EQ(sim.pending(), 0u);
  const EventId a = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);  // cancelled events leave immediately
  sim.step();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilIncludesEventAtExactDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(100, [&] { ++count; });
  sim.schedule(101, [&] { ++count; });
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilWithStopLeavesEventPastDeadlinePending) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(100, [&] { ++count; });
  EXPECT_EQ(sim.run_until(50, [] { return false; }), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilWithStopHaltsAtEventThatSatisfiesIt) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(20, [&] { ++count; });
  sim.schedule(30, [&] { ++count; });
  const auto two_ran = [&] { return count == 2; };
  EXPECT_EQ(sim.run_until(100, two_ran), 2u);
  EXPECT_EQ(sim.now(), 20);  // the clock stays at the stopping event
  EXPECT_EQ(sim.pending(), 1u);
  // Already satisfied: nothing runs and the clock does not move.
  EXPECT_EQ(sim.run_until(100, two_ran), 0u);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Simulator, RunUntilWithStopAdvancesClockWhenQueueDrainsEarly) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  EXPECT_EQ(sim.run_until(50, [] { return false; }), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.schedule(5, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 55);
}

TEST(Simulator, FarFutureEventsCrossWheelHorizon) {
  // Events beyond the wheel horizon (~8.4 ms) park in the overflow heap
  // and must still fire in exact (time, seq) order as time advances.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(seconds(10), [&] { order.push_back(3); });
  sim.schedule(milliseconds(100), [&] { order.push_back(2); });
  sim.schedule(microseconds(5), [&] { order.push_back(1); });
  sim.schedule(seconds(10), [&] { order.push_back(4); });  // FIFO tie
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, ScheduleAfterLongIdleRunUntil) {
  // run_until far past all events re-bases the wheel; later schedules
  // (relative to the new now()) must land correctly.
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.run_until(seconds(60));
  EXPECT_EQ(sim.now(), seconds(60));
  sim.schedule(5, [&] { ++count; });
  sim.schedule(seconds(30), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), seconds(90));
}

TEST(Simulator, DrainedRunThenFarTimerCancelledThenNearSchedule) {
  // Regression for the wheel-rebase path: run() drains everything, the
  // only surviving structure state points far ahead, then a cancel
  // empties it and a near-term schedule must re-base cleanly.
  Simulator sim;
  sim.schedule(1, [] {});
  const EventId far = sim.schedule(seconds(5), [] {});
  sim.run_until(10);
  EXPECT_TRUE(sim.cancel(far));
  sim.run();  // drains the cancelled stale entry, wheel may sit ahead
  bool ran = false;
  sim.schedule(1, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 11);
}

TEST(Simulator, HandlerSchedulingZeroDelayPreservesFifo) {
  // Zero-delay schedules from inside a handler land in the tick being
  // drained and must interleave in exact (time, seq) order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(0);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(11, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, ChurnAcrossGenerationsStaysCorrect) {
  // Heavy schedule/cancel churn on a small slot set exercises generation
  // wraparound-adjacent logic: no stale id may ever cancel a live event.
  Simulator sim;
  int fired = 0;
  std::vector<EventId> history;
  for (int round = 0; round < 500; ++round) {
    const EventId keep = sim.schedule(1, [&] { ++fired; });
    const EventId drop = sim.schedule(2, [] { FAIL(); });
    EXPECT_TRUE(sim.cancel(drop));
    for (const EventId stale : history) EXPECT_FALSE(sim.cancel(stale));
    history.clear();
    history.push_back(keep);
    history.push_back(drop);
    sim.run();
  }
  EXPECT_EQ(fired, 500);
  EXPECT_LE(sim.arena_slots(), 2u);
}

TEST(Simulator, MatchesReferenceOrderUnderRandomOperations) {
  // Random schedules at zero, in-bucket, in-wheel and past-horizon
  // delays, cancels of pending, fired and far ids, nested schedules and
  // self-cancels from handlers, step() and run_until(), against a
  // reference that orders pending events by (time, seq).
  using Key = std::pair<SimTime, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    Rng rng(seed);
    std::map<Key, std::uint64_t> model;  // pending: (time, seq) -> seq
    // By seq (from 1): every id handed out and its key, and the seqs
    // past the wheel's ~8.4 ms horizon when scheduled.
    std::vector<EventId> ids(1, kInvalidEvent);
    std::vector<Key> keys(1);
    std::vector<std::uint64_t> far;
    std::uint64_t fired = 0;

    const auto delay = [&rng]() -> SimDuration {
      switch (rng.next_below(5)) {
        case 0: return 0;
        case 1: return static_cast<SimDuration>(rng.next_below(4) * 1000);
        case 2: return static_cast<SimDuration>(rng.next_below(8192));
        case 3: return static_cast<SimDuration>(rng.next_below(8'000'000));
        default:
          return static_cast<SimDuration>(8'500'000 +
                                          rng.next_below(60'000'000));
      }
    };
    const auto cancel_some = [&] {
      std::uint64_t seq;
      if (!far.empty() && rng.next_bool(0.3)) {
        seq = far[rng.next_below(far.size())];
      } else if (rng.next_bool(0.5)) {
        seq = ids.size() - 1 - rng.next_below(std::min<std::size_t>(
                                   ids.size() - 1, 16));
      } else {
        seq = 1 + rng.next_below(ids.size() - 1);
      }
      EXPECT_EQ(sim.cancel(ids[seq]), model.erase(keys[seq]) == 1);
    };
    std::function<void()> schedule_one;
    const auto on_fire = [&](const Key& key) {
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(model.begin()->first, key);
      EXPECT_EQ(sim.now(), key.first);
      model.erase(key);
      ++fired;
      if (rng.next_bool(0.2)) {
        EXPECT_FALSE(sim.cancel(ids[key.second]));
      }
      if (rng.next_bool(0.5)) schedule_one();
      if (rng.next_bool(0.125)) schedule_one();
      if (rng.next_bool(0.2)) cancel_some();
    };
    schedule_one = [&] {
      const SimDuration d = delay();
      const Key key{sim.now() + d, ids.size()};
      ids.push_back(sim.schedule(d, [&on_fire, key] { on_fire(key); }));
      keys.push_back(key);
      model.emplace(key, key.second);
      if (d > 8'400'000) far.push_back(key.second);
    };

    for (int op = 0; op < 400; ++op) {
      switch (rng.next_below(6)) {
        case 0:
        case 1:
          schedule_one();
          break;
        case 2:
          if (ids.size() > 1) cancel_some();
          break;
        case 3: {
          const bool any = !model.empty();
          EXPECT_EQ(sim.step(), any);
          break;
        }
        default: {
          const SimTime deadline = sim.now() + delay();
          sim.run_until(deadline);
          EXPECT_EQ(sim.now(), deadline);
          EXPECT_TRUE(model.empty() || model.begin()->first.first > deadline);
          break;
        }
      }
      ASSERT_EQ(sim.pending(), model.size());
    }
    sim.run();
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.events_dispatched(), fired);
  }
}

TEST(Simulator, HandlerCaptureSurvivesGrowingTheArena) {
  // A handler runs in its arena slot. Scheduling more events than one
  // chunk holds adds chunks, which must not move the running closure:
  // under ASan, a moved arena makes the reads below use-after-free.
  Simulator sim;
  std::array<std::uint64_t, 12> words{};
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = 0x1111 * (i + 1);
  int fired = 0;
  bool checked = false;
  const auto handler = [&sim, &fired, &checked, words] {
    const void* before = words.data();
    for (int i = 0; i < 1000; ++i) sim.schedule(i, [&fired] { ++fired; });
    EXPECT_EQ(words.data(), before);
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(words[i], 0x1111 * (i + 1));
    }
    checked = true;
  };
  static_assert(EventFn::kStoresInline<decltype(handler)>);
  sim.schedule(1, handler);
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(fired, 1000);
  EXPECT_GT(sim.arena_slots(), 1000u);
}

TEST(Simulator, SelfReschedulingChainsReuseTheirSlots) {
  // A handler keeps its slot until it returns, so the tick it schedules
  // takes another; eight chains then cycle through nine slots. A slot
  // that never went back to the free list would grow the arena.
  Simulator sim;
  constexpr int kChains = 8;
  constexpr int kTicks = 10000;
  struct Chain {
    Simulator& sim;
    int ticks = 0;
    void tick() {
      if (++ticks < kTicks) sim.schedule(1 + ticks % 3, [this] { tick(); });
    }
  };
  std::vector<Chain> chains(kChains, Chain{sim});
  for (Chain& chain : chains) sim.schedule(0, [&chain] { chain.tick(); });
  sim.run();
  for (const Chain& chain : chains) EXPECT_EQ(chain.ticks, kTicks);
  EXPECT_LE(sim.arena_slots(), 9u);
}

TEST(PeriodicTimer, DestructorCancelsPendingCallback) {
  // Regression: a started timer going out of scope used to leave its
  // rearm closure queued with a dangling `this`. The destructor must
  // stop() so the simulator never fires into a dead timer.
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer(sim, 100, [&] { ++fires; });
    timer.start();
    sim.run_until(250);
    EXPECT_EQ(fires, 2);
  }  // destroyed while armed
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(seconds(1));  // would crash / fire into freed memory
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, StartWhileRunningKeepsOneChain) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer timer(sim, 10, [&] { ++fires; });
    timer.start();
    timer.start();
    sim.run_until(35);
    EXPECT_EQ(fires, 3);  // ticks at 10, 20 and 30
  }
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTimer, RestartInsideCallbackKeepsOneChain) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTimer* self = nullptr;
    PeriodicTimer timer(sim, 10, [&] {
      if (++fires == 1) {
        self->stop();
        self->start();
      }
    });
    self = &timer;
    timer.start();
    sim.run_until(45);
    EXPECT_EQ(fires, 4);  // ticks at 10, 20, 30 and 40
  }
  EXPECT_EQ(sim.pending(), 0u);
}

// --- InlineFn: the engine's small-buffer callable ---

TEST(InlineFn, InvokesInlineCapture) {
  int hits = 0;
  InlineFn<void(), 128> fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, MoveTransfersOwnership) {
  int hits = 0;
  InlineFn<void(), 128> a([&hits] { ++hits; });
  InlineFn<void(), 128> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, HoldsMoveOnlyCapture) {
  auto owned = std::make_unique<int>(41);
  InlineFn<void(), 128> fn([p = std::move(owned)] { ++*p; });
  fn();
  InlineFn<void(), 128> moved(std::move(fn));
  moved();
}

TEST(InlineFn, HeapFallbackForOversizedCapture) {
  struct Big {
    std::uint64_t words[64] = {};  // 512 bytes > Capacity
  };
  Big big;
  big.words[0] = 7;
  std::uint64_t seen = 0;
  InlineFn<void(), 128> fn([big, &seen] { seen = big.words[0]; });
  InlineFn<void(), 128> moved(std::move(fn));
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(InlineFn, AssignReplacesHeldCallable) {
  int first = 0, second = 0;
  InlineFn<void(), 128> fn([&first] { ++first; });
  fn();
  fn.assign([&second] { ++second; });
  fn();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(InlineFn, PassesArgumentsAndReturnsTheResult) {
  int base = 40;
  InlineFn<int(int, std::unique_ptr<int>), 16> fn(
      [&base](int add, std::unique_ptr<int> more) { return base + add + *more; });
  EXPECT_EQ(fn(1, std::make_unique<int>(1)), 42);
  // A capture past the capacity still works, from a heap cell.
  const std::uint64_t pad[4] = {1, 2, 3, 4};
  auto padded = [pad](int add, std::unique_ptr<int> more) {
    return static_cast<int>(pad[3]) + add + *more;
  };
  using Fn = InlineFn<int(int, std::unique_ptr<int>), 16>;
  static_assert(!Fn::kStoresInline<decltype(padded)>);
  Fn big(std::move(padded));
  EXPECT_EQ(big(1, std::make_unique<int>(2)), 7);
}

TEST(InlineFn, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* count;
    explicit Probe(int* c) : count(c) {}
    Probe(Probe&& o) noexcept : count(o.count) { o.count = nullptr; }
    Probe(const Probe&) = delete;
    ~Probe() {
      if (count != nullptr) ++*count;
    }
    void operator()() {}
  };
  int destroyed = 0;
  {
    InlineFn<void(), 128> fn{Probe(&destroyed)};
    InlineFn<void(), 128> moved(std::move(fn));
    moved();
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace lnic::sim
