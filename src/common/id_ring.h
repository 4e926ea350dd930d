// Live entries keyed by consecutive ids, in a ring indexed by id.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lnic {

/// Entries keyed by consecutive ids (1, 2, 3, ...) that finish in any
/// order: the RPC client's pending requests, and the KV calls a backend
/// waits on. Id n lives in slot n & (size − 1) of a power-of-two ring.
/// When the next id's slot still holds a live entry the ring doubles, so
/// it grows to the widest window of live ids and never shrinks. Doubling
/// keeps live ids in distinct slots, since ids that differ modulo n also
/// differ modulo 2n. Each slot stores its id, so a lookup for an id that
/// has finished (a late duplicate reply, a stale timer) finds nothing,
/// even after its slot was reused.
///
/// The pointers add() and find() return are invalidated by the next
/// add(), which may grow the ring.
template <typename T>
class IdRing {
 public:
  /// Stores a default T under the next id; returns the id and the entry.
  std::pair<std::uint64_t, T*> add() {
    const std::uint64_t id = next_++;
    while (slots_.empty() || slots_[index(id)].id != 0) grow();
    Slot& slot = slots_[index(id)];
    slot.id = id;
    ++live_;
    return {id, &slot.value};
  }

  /// The live entry for `id`, or nullptr.
  T* find(std::uint64_t id) {
    if (id == 0 || slots_.empty()) return nullptr;
    Slot& slot = slots_[index(id)];
    return slot.id == id ? &slot.value : nullptr;
  }

  /// Ends the live entry for `id` and returns its value. The slot is
  /// free before the caller acts on the value.
  T take(std::uint64_t id) {
    Slot& slot = slots_[index(id)];
    assert(id != 0 && slot.id == id);
    T value = std::move(slot.value);
    slot.value = T{};
    slot.id = 0;
    --live_;
    return value;
  }

  /// Live entries.
  std::size_t size() const { return live_; }
  /// Slots in the ring.
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  struct Slot {
    std::uint64_t id = 0;  // 0: free
    T value{};
  };

  std::size_t index(std::uint64_t id) const {
    return static_cast<std::size_t>(id & (slots_.size() - 1));
  }

  void grow() {
    std::vector<Slot> bigger(slots_.empty() ? kInitialSlots
                                            : slots_.size() * 2);
    const std::size_t mask = bigger.size() - 1;
    for (Slot& slot : slots_) {
      if (slot.id != 0) bigger[slot.id & mask] = std::move(slot);
    }
    slots_ = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::uint64_t next_ = 1;
  std::size_t live_ = 0;
};

}  // namespace lnic
