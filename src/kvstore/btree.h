// Order-configurable B+-tree index over a simulated host-memory page
// pool, plus the bounded NIC-resident node cache that fronts it
// (SmartOffloading: "a B+-tree index that is maintained in memory
// servers and cached in their SmartNICs").
//
// The tree itself is the authoritative structure: pages live in a dense
// pool (`PageId` = slot index) standing in for host DRAM, and every
// operation reports which pages it visited (`path_for`/`scan_path`) and,
// for a put, which pages it dirtied (`last_dirty`). Keys are never
// removed: no workload deletes one, so pages only split into existence.
// The transactional store layers timing on top: a visited page that hits
// the NodeCache costs NIC-local service time, a miss costs a one-sided
// RDMA read of `node_bytes()` from the host, and a commit writes dirty
// pages back and *invalidates* the NIC's cached copies (write-invalidate
// coherence — the next reader re-fetches).
//
// Structure invariants (checked by check_invariants, exercised by
// tests/btree_test.cc): all leaves at the same depth, nodes except the
// root at least half full, keys strictly ordered within and across
// separators, and the leaf chain enumerating exactly the in-order keys.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace lnic::kvstore {

using Key = std::uint64_t;
using Value = std::uint64_t;

/// Index of a page (tree node) in the simulated host-memory pool.
using PageId = std::uint32_t;
constexpr PageId kInvalidPage = 0xFFFFFFFFu;

struct BTreeConfig {
  /// Maximum keys per node (fanout - 1 for internal nodes). Minimum
  /// occupancy for non-root nodes is order / 2.
  std::uint32_t order = 32;
};

class BPlusTree {
 public:
  explicit BPlusTree(BTreeConfig config = {});

  /// Point lookup; no bookkeeping side effects.
  bool get(Key key, Value* out) const;
  bool contains(Key key) const { return get(key, nullptr); }

  /// Insert-or-update. Returns true when the key was newly inserted.
  /// Records dirty pages (the leaf plus any pages split into existence,
  /// plus ancestors that absorbed separators).
  bool put(Key key, Value value);

  /// Up to `count` key/value pairs in key order starting at the first
  /// key >= start. Returns the number produced; `out` may be null when
  /// only the count matters.
  std::size_t scan(Key start, std::size_t count,
                   std::vector<std::pair<Key, Value>>* out) const;

  /// Root-to-leaf page path a lookup of `key` visits.
  void path_for(Key key, std::vector<PageId>* out) const;
  /// Pages a scan touches: the descent path plus the chained leaves the
  /// scan walks through.
  void scan_path(Key start, std::size_t count,
                 std::vector<PageId>* out) const;

  /// Pages modified by the last put (cleared per call).
  const std::vector<PageId>& last_dirty() const { return dirty_; }

  std::size_t size() const { return size_; }
  std::uint32_t height() const { return height_; }
  std::size_t node_count() const { return pool_.size(); }
  std::uint32_t order() const { return config_.order; }

  /// On-the-wire size of one serialized node: 16-byte header plus
  /// `order` key slots and `order + 1` pointer/value slots of 8 bytes.
  Bytes node_bytes() const {
    return 16 + 8ull * config_.order + 8ull * (config_.order + 1);
  }

  /// Verifies every structural invariant; on failure returns false and
  /// (when `why` is non-null) a description of the first violation.
  bool check_invariants(std::string* why = nullptr) const;

 private:
  struct Node {
    bool leaf = true;
    std::vector<Key> keys;
    // Leaves: values[i] pairs with keys[i]. Internal: children has
    // keys.size() + 1 entries; child[i] holds keys < keys[i].
    std::vector<Value> values;
    std::vector<PageId> children;
    PageId next = kInvalidPage;  // leaf chain
  };

  PageId allocate(bool leaf);
  Node& node(PageId id) { return pool_[id]; }
  const Node& node(PageId id) const { return pool_[id]; }

  /// Leaf that contains (or would contain) `key`; appends the descent
  /// path (including the leaf) to `path` with per-level child indices
  /// in `slots` when non-null.
  PageId descend(Key key, std::vector<PageId>* path,
                 std::vector<std::uint32_t>* slots) const;

  void split_up(std::vector<PageId>& path, std::vector<std::uint32_t>& slots);

  std::uint32_t min_keys() const { return config_.order / 2; }

  BTreeConfig config_;
  std::vector<Node> pool_;
  PageId root_;
  std::uint32_t height_ = 1;  // levels including the leaf level
  std::size_t size_ = 0;
  std::vector<PageId> dirty_;
};

// ------------------------------------------------------------ NodeCache

struct NodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Bounded LRU of NIC-resident tree pages. Capacity 0 models the
/// host-backend baseline: every access misses and nothing is retained.
class NodeCache {
 public:
  explicit NodeCache(std::size_t capacity) : capacity_(capacity) {}

  /// True (and LRU-touch) when `id` is resident; false counts a miss —
  /// the caller fetches the page and insert()s it.
  bool access(PageId id);

  /// Installs a fetched page, evicting the LRU page when full. No-op at
  /// capacity 0 or when already resident.
  void insert(PageId id);

  /// Drops a page (coherence: called when a committed writeback dirties
  /// it). Returns true when a copy was resident.
  bool invalidate(PageId id);

  bool resident(PageId id) const { return map_.count(id) != 0; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  const NodeCacheStats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  std::list<PageId> lru_;  // most recent at front
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  NodeCacheStats stats_;
};

}  // namespace lnic::kvstore
