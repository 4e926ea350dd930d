// Discrete-event simulation engine.
//
// All λ-NIC experiments run on this single-threaded engine: entities
// schedule closures at absolute or relative simulated times; the engine
// dispatches them in (time, insertion-sequence) order, which makes every
// run deterministic for a fixed seed. Events may be cancelled through the
// handle returned by schedule().
//
// Internals are built for throughput (every simulated packet, timer and
// stage transition is one event):
//  - Callbacks live in a generation-checked slot arena. An EventId packs
//    {slot index, generation}; cancellation bumps the slot's generation
//    (O(1), no hash probe) and the stale queue entry is skipped at pop.
//    Freed slots recycle through a LIFO free list, so steady-state
//    scheduling allocates nothing.
//  - Callbacks are InlineFn (small-buffer, move-only): common closures
//    store in place instead of behind a std::function heap cell. The
//    arena grows in chunks that never move, so a closure is built in its
//    slot and runs there: dispatch never relocates it.
//  - The pending set is a calendar wheel, not a binary heap. Near-future
//    events append to one of 1024 time buckets (8.192 us apart, ~8.4 ms
//    horizon) in O(1); a bucket is sorted once when the clock reaches it
//    and then drained by index. Events beyond the horizon wait in a
//    small overflow heap and cascade into the wheel as time advances, so
//    sparse long timers never slow the per-packet path; one cancelled
//    while it waited is dropped instead of cascading. A comparison
//    heap pays ~log(pending) branchy compares per event; the wheel pays
//    an append plus its share of one contiguous std::sort.
//  - Dispatch order is exactly the historical (time, seq) min-heap
//    order — the wheel only changes *where* events wait, never the
//    order they fire — so every bench replays byte-for-byte.
//
// A simulation's observability state lives here too: its flight
// recorder and the one span recorder attached to it. Every component
// reaches both through the Simulator it runs on, so two simulations
// side by side (one per thread) never share a record.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/flightrec.h"
#include "common/types.h"
#include "sim/inline_fn.h"

namespace lnic::trace {
class TraceRecorder;
}

namespace lnic::sim {

/// Inline capacity covers the engine's hottest closures (packet delivery
/// captures a Packet — header plus a refcounted payload view).
using EventFn = InlineFn<void(), 128>;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Packs {slot index : 32, slot generation : 32}; generations start at 1
/// so no live event ever encodes to 0.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now (delay >= 0). Templated so
  /// the closure is constructed directly in its arena slot instead of
  /// being relocated through an EventFn temporary.
  template <typename F>
  EventId schedule(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time `at` (>= now()).
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    const EventId id = allocate_event(at);
    slot(slot_of(id)).fn.assign(std::forward<F>(fn));
    return id;
  }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Runs until the queue drains. Returns the number of events dispatched.
  std::uint64_t run();

  /// Runs events with time <= deadline; leaves later events pending and
  /// advances the clock to `deadline`. Returns events dispatched.
  std::uint64_t run_until(SimTime deadline);

  /// As run_until(deadline), but checks `stop` before each event and
  /// returns as soon as it holds, leaving the clock at the event that
  /// made it true. Lets callers wait for a completion flag in workloads
  /// whose queues never drain (heartbeats, periodic timers). When the
  /// run ends without `stop` holding, the clock advances to `deadline`.
  std::uint64_t run_until(SimTime deadline, const std::function<bool()>& stop);

  /// Dispatches exactly one event if any is pending. Returns true if one ran.
  bool step();

  /// Number of live (non-cancelled) pending events.
  std::size_t pending() const { return live_; }

  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Arena slots made so far (live, running or free-listed): the most
  /// ever in use at once, counting each handler running when the next
  /// slot was taken. Sizing/debug.
  std::size_t arena_slots() const { return slot_count_; }

  /// This simulation's anomaly ring (always on).
  flightrec::FlightRecorder& flight_recorder() { return flight_recorder_; }

  /// Attaches (nullptr, the default, detaches) the span recorder every
  /// component of this simulation writes to; it must outlive the
  /// attachment. Spans open at a detach stay open. Span ids are per
  /// recorder, so swap one recorder for another only between requests.
  void set_tracer(trace::TraceRecorder* tracer) { tracer_ = tracer; }
  trace::TraceRecorder* tracer() const { return tracer_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    EventId id;
    // Ordering for the overflow min-heap via std::greater.
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Wheel geometry: 1024 buckets of 8.192 us cover an ~8.4 ms horizon —
  // wide enough for packet latencies, service times, and short timers;
  // retransmit/periodic timers beyond it sit in the overflow heap.
  static constexpr unsigned kGranularityBits = 13;
  static constexpr unsigned kWheelBits = 10;
  static constexpr std::uint64_t kWheelSize = 1ull << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;

  static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kGranularityBits;
  }

  /// The earliest pending entry without mutating anything: the head of
  /// the bucket being drained, else the min of the next occupied bucket,
  /// else (wheel empty) the overflow top.
  struct Candidate {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    bool in_wheel = false;
    bool found = false;
  };
  Candidate peek() const;
  bool find_next_bucket(std::uint64_t* tick_out) const;

  /// Reserves a slot + queue entry for time `at`; the caller fills the
  /// slot's callback. Returns the packed EventId.
  EventId allocate_event(SimTime at);

  void push_entry(const Entry& e);
  void append_to_bucket(const Entry& e, std::uint64_t tick);
  /// Moves the wheel to `tick` and cascades overflow events that are now
  /// inside the horizon into their buckets.
  void advance_to(std::uint64_t tick);
  void close_bucket();

  /// One arena cell. `generation` advances every time the slot's event
  /// is consumed (dispatched or cancelled), invalidating outstanding ids
  /// that still reference the slot.
  struct Slot {
    std::uint32_t generation = 1;
    bool armed = false;
    EventFn fn;
  };
  static constexpr unsigned kChunkBits = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & kChunkMask];
  }
  /// True while `id`'s event is pending: neither run nor cancelled.
  bool is_pending(EventId id) {
    const Slot& s = slot(slot_of(id));
    return s.armed && s.generation == generation_of(id);
  }

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  /// Invalidates the ids of a slot whose event was consumed. The caller
  /// puts the slot back on the free list once its closure is gone.
  void disarm(Slot& s);

  /// Ends a deadline run: moves the clock (and the wheel) to `deadline`.
  void settle_at(SimTime deadline);

  // Pops one event with time <= limit and runs it. Returns false when no
  // such event exists.
  bool pop_and_dispatch(SimTime limit);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;

  // Calendar wheel. buckets_[t & mask] holds entries for absolute tick t
  // (only ticks in [tick_, tick_ + kWheelSize) are ever resident, so the
  // ring index is unambiguous). mins_ tracks each bucket's earliest
  // (time, seq) for peeking without sorting; bits_ marks occupancy.
  std::vector<std::vector<Entry>> buckets_ =
      std::vector<std::vector<Entry>>(kWheelSize);
  struct MinKey {
    SimTime time;
    std::uint64_t seq;
  };
  std::vector<MinKey> mins_ = std::vector<MinKey>(kWheelSize);
  std::array<std::uint64_t, kWheelSize / 64> bits_{};
  std::uint64_t tick_ = 0;        // wheel position (absolute tick)
  std::size_t drain_pos_ = 0;     // next entry in the open bucket
  bool draining_ = false;         // current tick's bucket is sorted+open
  // Arrivals into the tick being drained. Successive same-tick arrivals
  // almost always carry nondecreasing (time, seq) keys — the clock only
  // moves forward between dispatches — so this stays a sorted run built
  // by appends, merged with the open bucket at pop. The alternative
  // (ordered insert into the bucket's unconsumed suffix) memmoves the
  // suffix on every zero/tiny-delay schedule, which dominates tight
  // event loops.
  std::vector<Entry> incoming_;
  std::size_t incoming_pos_ = 0;
  // Events beyond the wheel horizon, cascaded in by advance_to().
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
      overflow_;

  // The arena: slot i is chunks_[i >> kChunkBits][i & kChunkMask].
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;  // LIFO recycling

  flightrec::FlightRecorder flight_recorder_;
  trace::TraceRecorder* tracer_ = nullptr;
};

/// Repeating timer helper: reschedules itself every `period` until
/// stop()ped or destroyed. Owned by the caller; the destructor cancels
/// the pending callback so the simulator can never fire into a dead
/// timer (`this` is captured by the rearm closure).
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, EventFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms a tick one period from now unless one is already pending, so
  /// a timer never has two ticks pending.
  void start() {
    stopped_ = false;
    if (pending_ == kInvalidEvent) arm();
  }
  void stop() {
    stopped_ = true;
    if (pending_ != kInvalidEvent) sim_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
  bool running() const { return !stopped_; }

 private:
  void arm() {
    pending_ = sim_.schedule(period_, [this] {
      pending_ = kInvalidEvent;
      if (stopped_) return;
      fn_();
      // The callback may have stopped the timer, or restarted it, which
      // armed the next tick already.
      if (!stopped_ && pending_ == kInvalidEvent) arm();
    });
  }

  Simulator& sim_;
  SimDuration period_;
  EventFn fn_;
  bool stopped_ = true;
  EventId pending_ = kInvalidEvent;
};

}  // namespace lnic::sim
