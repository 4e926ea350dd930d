// Recycled per-request records: the gateway's per-call records and the
// NIC's in-flight requests.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace lnic {

/// Objects of one type recycled through a LIFO free list, over storage
/// that never moves: take() hands out a parked object and put() parks it
/// again. Objects are default-constructed in chunks of kChunk and stay
/// constructed while parked, so storage they own (a vector's capacity)
/// is reused with them; the owner resets what a new use must not see.
/// Pointers stay valid for the pool's lifetime, and the pool grows to
/// the most objects ever out at once. Destroying the pool destroys
/// every object, parked or not. T may be incomplete where the pool is
/// declared.
template <typename T>
class Pool {
 public:
  static constexpr std::size_t kChunk = 64;

  T* take() {
    if (free_.empty()) grow();
    T* object = free_.back();
    free_.pop_back();
    return object;
  }

  void put(T* object) { free_.push_back(object); }

  /// Objects made so far (out plus parked), a multiple of kChunk.
  std::size_t size() const { return chunks_.size() * kChunk; }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<T[]>(kChunk));
    T* chunk = chunks_.back().get();
    // Lowest address first out.
    for (std::size_t i = kChunk; i-- > 0;) free_.push_back(chunk + i);
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

/// Byte pattern of parked records in asserts-on builds.
constexpr unsigned char kParkedPoison = 0xA5;

/// Fills a parked record's plain fields with kParkedPoison in
/// asserts-on builds, as the interpreter fills unzeroed registers with
/// kRegisterPoison: a read through a stale pointer then sees garbage
/// (a wild pointer, an absurd time) instead of the last request's
/// values. A no-op when asserts are off.
template <typename T>
void poison_parked(T& fields) {
  static_assert(std::is_trivially_copyable_v<T>);
#ifndef NDEBUG
  std::memset(static_cast<void*>(&fields), kParkedPoison, sizeof(T));
#else
  (void)fields;
#endif
}

}  // namespace lnic
