#include "common/buffer.h"

#include <cstring>
#include <new>

namespace lnic {

namespace {
thread_local CopyStats t_copy_stats;

void count_copy(std::size_t bytes) {
  t_copy_stats.bytes_copied += bytes;
  ++t_copy_stats.copies;
}

void count_share(std::size_t bytes) {
  t_copy_stats.bytes_shared += bytes;
  ++t_copy_stats.shares;
}

// The storage free lists. They are per thread, not per simulation: a
// Buffer is dropped wherever its last view goes, with no simulation at
// hand, and per-thread lists need no lock. What they hold is an
// allocator cache, invisible to any result.
struct Recycler {
  std::vector<std::vector<std::uint8_t>> vectors;  // LIFO
  std::size_t vector_bytes = 0;  // capacity held in `vectors`
  std::vector<void*> blocks;     // control blocks, each block_size bytes
  std::size_t block_size = 0;

  Recycler() {
    vectors.reserve(kMaxSpareVectors);
    blocks.reserve(kMaxSpareBlocks);
  }
  ~Recycler();
};

// Set once this thread's Recycler is destroyed (at thread exit, which
// for the main thread comes before static destructors): Buffers dropped
// after that free their storage directly.
thread_local bool t_recycler_gone = false;

Recycler* recycler() {
  if (t_recycler_gone) return nullptr;
  thread_local Recycler instance;
  return &instance;
}

Recycler::~Recycler() {
  t_recycler_gone = true;
  for (void* block : blocks) ::operator delete(block, block_size);
}

void* take_block(std::size_t size) {
  Recycler* r = recycler();
  if (r != nullptr && size == r->block_size && !r->blocks.empty()) {
    void* block = r->blocks.back();
    r->blocks.pop_back();
    return block;
  }
  return ::operator new(size);
}

void give_block(void* block, std::size_t size) {
  Recycler* r = recycler();
  if (r != nullptr && r->blocks.size() < kMaxSpareBlocks &&
      (r->block_size == 0 || r->block_size == size)) {
    r->block_size = size;
    r->blocks.push_back(block);
    return;
  }
  ::operator delete(block, size);
}

/// Allocates Buffer control blocks (allocate_shared's one cell) from
/// the thread's free list.
template <typename T>
struct BlockAllocator {
  using value_type = T;
  BlockAllocator() = default;
  template <typename U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(take_block(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    give_block(p, n * sizeof(T));
  }
  friend bool operator==(const BlockAllocator&, const BlockAllocator&) {
    return true;
  }
};
}  // namespace

std::vector<std::uint8_t> recycled_bytes(std::size_t reserve) {
  std::vector<std::uint8_t> bytes;
  Recycler* r = recycler();
  if (r != nullptr && !r->vectors.empty()) {
    bytes = std::move(r->vectors.back());
    r->vectors.pop_back();
    r->vector_bytes -= bytes.capacity();
    bytes.clear();
  }
  bytes.reserve(reserve);
  return bytes;
}

Buffer::~Buffer() {
  const std::size_t capacity = bytes_.capacity();
  if (capacity == 0 || capacity > kMaxSpareVectorBytes) return;
  Recycler* r = recycler();
  if (r == nullptr || r->vectors.size() >= kMaxSpareVectors ||
      r->vector_bytes + capacity > kMaxSpareBytes) {
    return;
  }
  r->vector_bytes += capacity;
  r->vectors.push_back(std::move(bytes_));
}

CopyStats copy_stats() { return t_copy_stats; }

void reset_copy_stats() { t_copy_stats = CopyStats{}; }

Buffer::Ptr Buffer::adopt(std::vector<std::uint8_t> bytes) {
  return std::allocate_shared<const Buffer>(BlockAllocator<Buffer>{},
                                            AdoptTag{}, std::move(bytes));
}

Buffer::Ptr Buffer::copy_of(const std::uint8_t* data, std::size_t size) {
  count_copy(size);
  std::vector<std::uint8_t> bytes = recycled_bytes(size);
  bytes.assign(data, data + size);
  return adopt(std::move(bytes));
}

BufferView::BufferView(std::vector<std::uint8_t>&& bytes)
    : buffer_(Buffer::adopt(std::move(bytes))) {
  len_ = buffer_->size();
}

BufferView::BufferView(const std::vector<std::uint8_t>& bytes)
    : buffer_(Buffer::copy_of(bytes.data(), bytes.size())),
      len_(bytes.size()) {}

BufferView::BufferView(std::initializer_list<std::uint8_t> bytes)
    : BufferView(std::vector<std::uint8_t>(bytes)) {}

BufferView::BufferView(Buffer::Ptr buffer, std::size_t offset, std::size_t len)
    : buffer_(std::move(buffer)), offset_(offset), len_(len) {}

BufferView BufferView::slice(std::size_t offset, std::size_t len) const {
  count_share(len);
  return BufferView(buffer_, offset_ + offset, len);
}

std::vector<std::uint8_t> BufferView::to_vector() const {
  count_copy(len_);
  return std::vector<std::uint8_t>(begin(), end());
}

bool operator==(const BufferView& a, const BufferView& b) {
  if (a.size() != b.size()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

bool operator==(const BufferView& a, const std::vector<std::uint8_t>& b) {
  if (a.size() != b.size()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

BufferView coalesce(const std::vector<BufferView>& frags) {
  if (frags.empty()) return BufferView{};
  if (frags.size() == 1) {
    count_share(frags[0].size());
    return frags[0];
  }
  std::size_t total = 0;
  bool contiguous = true;
  const Buffer::Ptr& base = frags[0].buffer();
  std::size_t next_offset = frags[0].offset();
  for (const BufferView& f : frags) {
    total += f.size();
    if (f.buffer() != base || f.offset() != next_offset) contiguous = false;
    next_offset = f.offset() + f.size();
  }
  if (contiguous && base != nullptr) {
    count_share(total);
    return BufferView(base, frags[0].offset(), total);
  }
  // Fragments from different buffers (e.g. hand-built test packets):
  // one concatenating copy, exactly what the old datapath always did.
  std::vector<std::uint8_t> merged;
  merged.reserve(total);
  for (const BufferView& f : frags) {
    merged.insert(merged.end(), f.begin(), f.end());
  }
  count_copy(total);
  return BufferView(std::move(merged));
}

}  // namespace lnic
