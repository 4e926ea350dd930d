#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace lnic::sim {

EventId Simulator::allocate_event(SimTime at) {
  assert(at >= now_);
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if ((slot_count_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
    }
    index = slot_count_++;
  }
  Slot& s = slot(index);
  s.armed = true;
  ++live_;
  const EventId id = pack(index, s.generation);
  push_entry(Entry{at, next_seq_++, id});
  return id;
}

void Simulator::push_entry(const Entry& e) {
  const std::uint64_t tick = tick_of(e.time);
  if (tick < tick_) {
    // The wheel can sit ahead of the clock only after a run() drained
    // the queue completely with its last entries cancelled far timers
    // (dispatching never leaves a gap: now_ catches up to tick_). The
    // structure is empty here, so re-base the wheel at this event.
    tick_ = tick;
  }
  if (tick >= tick_ + kWheelSize) {
    overflow_.push(e);
    return;
  }
  if (draining_ && tick == tick_) {
    // Scheduling into the bucket currently being drained (a zero/tiny
    // delay from inside a handler): arrivals go to the incoming run.
    // Keys are almost always appended in order; the occasional
    // out-of-order arrival is placed by ordered insert.
    if (incoming_.empty() || !entry_less(e, incoming_.back())) {
      incoming_.push_back(e);
    } else {
      incoming_.insert(
          std::upper_bound(
              incoming_.begin() +
                  static_cast<std::ptrdiff_t>(incoming_pos_),
              incoming_.end(), e, entry_less),
          e);
    }
    return;
  }
  append_to_bucket(e, tick);
}

void Simulator::append_to_bucket(const Entry& e, std::uint64_t tick) {
  const std::uint64_t idx = tick & kWheelMask;
  auto& b = buckets_[idx];
  if (b.empty()) {
    bits_[idx >> 6] |= 1ull << (idx & 63);
    mins_[idx] = MinKey{e.time, e.seq};
  } else if (e.time < mins_[idx].time) {
    // Equal times keep the resident min: sequence numbers only grow.
    mins_[idx] = MinKey{e.time, e.seq};
  }
  b.push_back(e);
}

void Simulator::advance_to(std::uint64_t tick) {
  tick_ = tick;
  while (!overflow_.empty() &&
         tick_of(overflow_.top().time) < tick_ + kWheelSize) {
    const Entry e = overflow_.top();
    overflow_.pop();
    // A timer cancelled while it waited here would only be skipped at
    // pop: drop it instead of filing it in a bucket.
    if (is_pending(e.id)) append_to_bucket(e, tick_of(e.time));
  }
}

void Simulator::close_bucket() {
  const std::uint64_t idx = tick_ & kWheelMask;
  buckets_[idx].clear();  // keeps capacity for the next lap
  incoming_.clear();
  incoming_pos_ = 0;
  bits_[idx >> 6] &= ~(1ull << (idx & 63));
  draining_ = false;
}

bool Simulator::find_next_bucket(std::uint64_t* tick_out) const {
  constexpr std::uint64_t kWords = kWheelSize / 64;
  const std::uint64_t idx0 = tick_ & kWheelMask;
  std::uint64_t word_i = idx0 >> 6;
  std::uint64_t word = bits_[word_i] & (~0ull << (idx0 & 63));
  // One pass over the ring (first word is revisited unmasked at the end;
  // its high bits were proven empty on the masked visit).
  for (std::uint64_t scanned = 0; scanned <= kWords; ++scanned) {
    if (word != 0) {
      const std::uint64_t idx =
          (word_i << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      const std::uint64_t base = tick_ & ~kWheelMask;
      *tick_out = idx >= idx0 ? base + idx : base + kWheelSize + idx;
      return true;
    }
    word_i = (word_i + 1) & (kWords - 1);
    word = bits_[word_i];
  }
  return false;
}

Simulator::Candidate Simulator::peek() const {
  Candidate c;
  if (draining_) {
    // Entries in later buckets belong to later ticks, so the open
    // bucket's merge head (sorted bucket vs incoming run) is the wheel
    // minimum.
    const auto& b = buckets_[tick_ & kWheelMask];
    const Entry* e = drain_pos_ < b.size() ? &b[drain_pos_] : nullptr;
    if (incoming_pos_ < incoming_.size()) {
      const Entry& in = incoming_[incoming_pos_];
      if (e == nullptr || entry_less(in, *e)) e = &in;
    }
    c = Candidate{e->time, e->seq, tick_, true, true};
  } else {
    std::uint64_t tick;
    if (find_next_bucket(&tick)) {
      const MinKey& m = mins_[tick & kWheelMask];
      c = Candidate{m.time, m.seq, tick, true, true};
    }
  }
  if (!overflow_.empty()) {
    const Entry& top = overflow_.top();
    if (!c.found || top.time < c.time ||
        (top.time == c.time && top.seq < c.seq)) {
      c = Candidate{top.time, top.seq, tick_of(top.time), false, true};
    }
  }
  return c;
}

void Simulator::disarm(Slot& s) {
  s.armed = false;
  // Generation 0 is reserved so kInvalidEvent (= 0) never matches.
  if (++s.generation == 0) s.generation = 1;
  --live_;
}

bool Simulator::cancel(EventId id) {
  if (slot_of(id) >= slot_count_ || !is_pending(id)) return false;
  Slot& s = slot(slot_of(id));
  s.fn.reset();  // free the closure eagerly; the queue entry lazily skips
  disarm(s);
  free_slots_.push_back(slot_of(id));
  return true;
}

bool Simulator::pop_and_dispatch(SimTime limit) {
  for (;;) {
    const Candidate c = peek();
    // A cancelled event may still be a bucket's recorded min; opening
    // the bucket below drains the stale entry and the loop re-peeks.
    if (!c.found || c.time > limit) return false;
    Entry e;
    if (c.in_wheel) {
      if (!draining_) {
        advance_to(c.tick);
        auto& b = buckets_[tick_ & kWheelMask];
        std::sort(b.begin(), b.end(), entry_less);
        draining_ = true;
        drain_pos_ = 0;
      }
      auto& b = buckets_[tick_ & kWheelMask];
      const bool from_incoming =
          drain_pos_ == b.size() ||
          (incoming_pos_ < incoming_.size() &&
           entry_less(incoming_[incoming_pos_], b[drain_pos_]));
      e = from_incoming ? incoming_[incoming_pos_++] : b[drain_pos_++];
      if (drain_pos_ == b.size() && incoming_pos_ == incoming_.size()) {
        close_bucket();
      }
    } else {
      // Wheel empty and the next event is past the horizon: move the
      // wheel there so the cluster around it drains through buckets.
      advance_to(c.tick);
      continue;
    }
    if (!is_pending(e.id)) continue;  // cancelled: stale generation
    // Disarm before invoking, so a handler that tries to cancel itself
    // learns (correctly) that its event already fired. The closure runs
    // where it lies, since chunks never move, and the slot is freed only
    // after it is destroyed: events the handler schedules take others.
    Slot& s = slot(slot_of(e.id));
    disarm(s);
    now_ = e.time;
    ++dispatched_;
    s.fn();
    s.fn.reset();
    free_slots_.push_back(slot_of(e.id));
    return true;
  }
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (pop_and_dispatch(kSimTimeMax)) ++n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (pop_and_dispatch(deadline)) ++n;
  settle_at(deadline);
  return n;
}

std::uint64_t Simulator::run_until(SimTime deadline,
                                   const std::function<bool()>& stop) {
  std::uint64_t n = 0;
  while (!stop()) {
    if (!pop_and_dispatch(deadline)) {
      settle_at(deadline);
      break;
    }
    ++n;
  }
  return n;
}

void Simulator::settle_at(SimTime deadline) {
  if (now_ < deadline) now_ = deadline;
  // Catch the wheel up to the clock so post-deadline schedules land in
  // buckets instead of detouring through the overflow heap. Safe: every
  // pending entry's time exceeds `deadline`, so no occupied bucket is
  // behind the new position. (If the deadline bucket is still open,
  // tick_ already equals its tick and no move is needed.)
  const std::uint64_t tick = tick_of(deadline);
  if (!draining_ && tick > tick_) advance_to(tick);
}

bool Simulator::step() { return pop_and_dispatch(kSimTimeMax); }

}  // namespace lnic::sim
