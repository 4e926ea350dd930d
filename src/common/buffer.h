// Refcounted immutable payload buffers with cheap slicing.
//
// The simulated datapath used to deep-copy std::vector payloads at every
// hop: fragmentation sliced the body into per-packet vectors, RPC
// retransmission re-copied the request, and reassembly concatenated the
// fragments back into a fresh vector. A Buffer is allocated once at the
// producer (moving the producer's vector in, no byte copy) and every
// downstream stage — fragments, retransmitted packets, RDMA segments,
// reassembled bodies — carries a BufferView {buffer, offset, len} into
// the same storage. This mirrors what λ-NIC does on real hardware, where
// the payload lives in NIC memory (EMEM) and stages pass descriptors,
// not bytes (paper §5.1).
//
// Ownership rules:
//  - Buffers are immutable after construction; a view can never observe
//    a mutation. Build new contents in a std::vector and adopt it.
//  - A BufferView keeps its Buffer alive (shared_ptr); views are safe to
//    retain beyond the packet or RPC that delivered them.
//  - coalesce() reassembles fragments: views that are in-order
//    contiguous slices of one buffer merge without copying; anything
//    else falls back to one concatenating copy.
//
// Every byte physically copied through this API is counted in
// copy_stats(), and every byte handed off by reference that the old
// datapath would have copied is counted as shared — the
// bench/perf_datapath bench reports both.
//
// Storage is recycled per thread: when a Buffer's last view drops, its
// byte vector goes to a bounded free list that recycled_bytes() hands
// out again, and its shared_ptr control block to another. So a request
// path that builds its payloads with recycled_bytes() (responses, KV
// bodies) allocates nothing once warm. The lists hold at most
// kMaxSpareVectors vectors of at most kMaxSpareVectorBytes each and
// kMaxSpareBytes in all, and kMaxSpareBlocks control blocks; what does
// not fit is freed. Contents never carry over: recycled_bytes() returns
// an empty vector.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <vector>

namespace lnic {

/// Accounting of payload bytes moved through the buffer API. Kept per
/// thread, like the storage free lists: slice() has no simulation at
/// hand, and one simulation runs on one thread, so simulations on
/// different threads keep apart tallies, each a plain add. Reset
/// between bench scenarios.
struct CopyStats {
  std::uint64_t bytes_copied = 0;  // bytes physically memcpy'd
  std::uint64_t copies = 0;        // copy operations
  std::uint64_t bytes_shared = 0;  // bytes passed by reference instead
  std::uint64_t shares = 0;        // zero-copy handoffs
};

/// The calling thread's tallies, and their reset.
CopyStats copy_stats();
void reset_copy_stats();

/// Bounds of the per-thread storage free lists (see above).
constexpr std::size_t kMaxSpareVectors = 256;
constexpr std::size_t kMaxSpareVectorBytes = 64 * 1024;
constexpr std::size_t kMaxSpareBytes = 1024 * 1024;
constexpr std::size_t kMaxSpareBlocks = 1024;

/// An empty byte vector with at least `reserve` bytes of capacity, built
/// on storage a dropped Buffer gave back when there is some.
std::vector<std::uint8_t> recycled_bytes(std::size_t reserve);

/// Immutable refcounted byte array. Create via adopt() (takes ownership
/// of a vector, no byte copy) or copy_of() (counted copy).
class Buffer {
 public:
  using Ptr = std::shared_ptr<const Buffer>;

  static Ptr adopt(std::vector<std::uint8_t> bytes);
  static Ptr copy_of(const std::uint8_t* data, std::size_t size);

  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }

 private:
  struct AdoptTag {};

 public:
  // Constructible only through adopt()/copy_of() (the tag is private).
  Buffer(AdoptTag, std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}
  /// Hands the bytes' storage to this thread's free list.
  ~Buffer();
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A borrowed [offset, offset+len) window of a Buffer. Cheap to copy
/// (one shared_ptr bump); provides the read-only surface of a
/// std::vector<std::uint8_t> so packet consumers index and iterate
/// payloads exactly as before.
class BufferView {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  BufferView() = default;
  BufferView(std::nullptr_t) {}

  /// Adopts the vector's storage: no byte copy.
  BufferView(std::vector<std::uint8_t>&& bytes);
  /// Copies (counted in copy_stats) — prefer moving the vector in.
  BufferView(const std::vector<std::uint8_t>& bytes);
  BufferView(std::initializer_list<std::uint8_t> bytes);
  BufferView(Buffer::Ptr buffer, std::size_t offset, std::size_t len);

  const std::uint8_t* data() const {
    return buffer_ ? buffer_->data() + offset_ : nullptr;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  std::uint8_t front() const { return data()[0]; }
  std::uint8_t back() const { return data()[len_ - 1]; }

  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + len_; }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  /// Sub-window sharing the same storage (counted as a zero-copy share).
  BufferView slice(std::size_t offset, std::size_t len) const;

  /// Materializes the bytes (counted copy).
  std::vector<std::uint8_t> to_vector() const;

  const Buffer::Ptr& buffer() const { return buffer_; }
  std::size_t offset() const { return offset_; }

  friend bool operator==(const BufferView& a, const BufferView& b);

 private:
  Buffer::Ptr buffer_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

bool operator==(const BufferView& a, const std::vector<std::uint8_t>& b);

/// Reassembles fragments into one body. When the views are in-order
/// contiguous slices of a single buffer — the common case, since
/// fragment() slices one buffer — the result is a spanning view of that
/// buffer and no bytes move. Otherwise falls back to one concatenation.
BufferView coalesce(const std::vector<BufferView>& frags);

}  // namespace lnic
