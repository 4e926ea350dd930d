// The one bounded record ring: flight events, packet records and the NPU
// profiler's samples all keep their most recent entries in one of these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

namespace lnic {

/// Keeps the last `capacity` values pushed, oldest first, and counts the
/// ones it pushed out. A capacity of 0 keeps nothing and counts every
/// push as evicted. No lock: each simulation owns its rings.
template <typename T>
class BoundedRing {
 public:
  using const_iterator = typename std::deque<T>::const_iterator;

  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  /// Appends `value`, evicting the oldest entry when the ring is full.
  void push(T value) {
    if (capacity_ == 0) {
      ++evicted_;
      return;
    }
    if (items_.size() == capacity_) evict_oldest();
    items_.push_back(std::move(value));
  }

  /// Changes the bound; shrinking evicts the oldest entries at once.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (items_.size() > capacity_) evict_oldest();
  }

  /// Drops every entry and zeroes the eviction count.
  void clear() {
    items_.clear();
    evicted_ = 0;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries pushed out (or refused at capacity 0) since the last clear().
  std::uint64_t evicted() const { return evicted_; }

  /// Oldest first: index 0 and front() are the oldest entry.
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T& front() const { return items_.front(); }
  const T& back() const { return items_.back(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

 private:
  void evict_oldest() {
    items_.pop_front();
    ++evicted_;
  }

  std::deque<T> items_;
  std::size_t capacity_;
  std::uint64_t evicted_ = 0;
};

}  // namespace lnic
