#include "kvstore/btree.h"

#include <algorithm>
#include <functional>

namespace lnic::kvstore {

BPlusTree::BPlusTree(BTreeConfig config) : config_(config) {
  if (config_.order < 4) config_.order = 4;
  root_ = allocate(/*leaf=*/true);
  dirty_.clear();  // construction is not a tracked mutation
}

PageId BPlusTree::allocate(bool leaf) {
  const auto id = static_cast<PageId>(pool_.size());
  pool_.emplace_back();
  pool_[id].leaf = leaf;
  dirty_.push_back(id);
  return id;
}

PageId BPlusTree::descend(Key key, std::vector<PageId>* path,
                          std::vector<std::uint32_t>* slots) const {
  PageId cur = root_;
  if (path != nullptr) path->push_back(cur);
  while (!node(cur).leaf) {
    const Node& n = node(cur);
    const auto it = std::upper_bound(n.keys.begin(), n.keys.end(), key);
    const auto slot = static_cast<std::uint32_t>(it - n.keys.begin());
    cur = n.children[slot];
    if (slots != nullptr) slots->push_back(slot);
    if (path != nullptr) path->push_back(cur);
  }
  return cur;
}

bool BPlusTree::get(Key key, Value* out) const {
  const PageId leaf = descend(key, nullptr, nullptr);
  const Node& n = node(leaf);
  const auto it = std::lower_bound(n.keys.begin(), n.keys.end(), key);
  if (it == n.keys.end() || *it != key) return false;
  if (out != nullptr) *out = n.values[it - n.keys.begin()];
  return true;
}

void BPlusTree::path_for(Key key, std::vector<PageId>* out) const {
  descend(key, out, nullptr);
}

bool BPlusTree::put(Key key, Value value) {
  dirty_.clear();
  std::vector<PageId> path;
  std::vector<std::uint32_t> slots;
  const PageId leaf = descend(key, &path, &slots);
  Node& n = node(leaf);
  const auto it = std::lower_bound(n.keys.begin(), n.keys.end(), key);
  const auto at = it - n.keys.begin();
  dirty_.push_back(leaf);
  if (it != n.keys.end() && *it == key) {
    n.values[at] = value;
    return false;
  }
  n.keys.insert(it, key);
  n.values.insert(n.values.begin() + at, value);
  ++size_;
  if (n.keys.size() > config_.order) split_up(path, slots);
  return true;
}

void BPlusTree::split_up(std::vector<PageId>& path,
                         std::vector<std::uint32_t>& slots) {
  for (std::size_t level = path.size(); level-- > 0;) {
    const PageId cur = path[level];
    if (node(cur).keys.size() <= config_.order) return;
    const PageId right = allocate(node(cur).leaf);
    Node& left_n = node(cur);   // re-resolve: allocate may move the pool
    Node& right_n = node(right);
    Key separator;
    const std::size_t mid = left_n.keys.size() / 2;
    if (left_n.leaf) {
      right_n.keys.assign(left_n.keys.begin() + mid, left_n.keys.end());
      right_n.values.assign(left_n.values.begin() + mid, left_n.values.end());
      left_n.keys.resize(mid);
      left_n.values.resize(mid);
      separator = right_n.keys.front();
      right_n.next = left_n.next;
      left_n.next = right;
    } else {
      separator = left_n.keys[mid];
      right_n.keys.assign(left_n.keys.begin() + mid + 1, left_n.keys.end());
      right_n.children.assign(left_n.children.begin() + mid + 1,
                              left_n.children.end());
      left_n.keys.resize(mid);
      left_n.children.resize(mid + 1);
    }
    dirty_.push_back(cur);
    if (level == 0) {
      const PageId new_root = allocate(/*leaf=*/false);
      Node& r = node(new_root);
      r.keys.push_back(separator);
      r.children.push_back(cur);
      r.children.push_back(right);
      root_ = new_root;
      ++height_;
      return;
    }
    const PageId parent = path[level - 1];
    const std::uint32_t slot = slots[level - 1];
    Node& p = node(parent);
    p.keys.insert(p.keys.begin() + slot, separator);
    p.children.insert(p.children.begin() + slot + 1, right);
    dirty_.push_back(parent);
  }
}

std::size_t BPlusTree::scan(Key start, std::size_t count,
                            std::vector<std::pair<Key, Value>>* out) const {
  PageId leaf = descend(start, nullptr, nullptr);
  std::size_t produced = 0;
  const Node* n = &node(leaf);
  auto it = std::lower_bound(n->keys.begin(), n->keys.end(), start);
  std::size_t idx = static_cast<std::size_t>(it - n->keys.begin());
  while (produced < count) {
    if (idx >= n->keys.size()) {
      if (n->next == kInvalidPage) break;
      n = &node(n->next);
      idx = 0;
      continue;
    }
    if (out != nullptr) out->emplace_back(n->keys[idx], n->values[idx]);
    ++produced;
    ++idx;
  }
  return produced;
}

void BPlusTree::scan_path(Key start, std::size_t count,
                          std::vector<PageId>* out) const {
  const PageId leaf = descend(start, out, nullptr);
  std::size_t remaining = count;
  const Node* n = &node(leaf);
  auto it = std::lower_bound(n->keys.begin(), n->keys.end(), start);
  std::size_t available = n->keys.size() - (it - n->keys.begin());
  while (available < remaining && n->next != kInvalidPage) {
    remaining -= available;
    if (out != nullptr) out->push_back(n->next);
    n = &node(n->next);
    available = n->keys.size();
  }
}

bool BPlusTree::check_invariants(std::string* why) const {
  auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };

  // Recursive bound/occupancy/depth check.
  std::size_t counted = 0;
  std::vector<PageId> leftmost_per_depth;
  std::function<bool(PageId, std::uint32_t, bool, Key, bool, Key,
                     std::string*)>
      walk = [&](PageId id, std::uint32_t depth, bool has_lo, Key lo,
                 bool has_hi, Key hi, std::string* err) -> bool {
    const Node& n = node(id);
    if (id != root_ && n.keys.size() < min_keys()) {
      *err = "underfull node " + std::to_string(id);
      return false;
    }
    if (n.keys.size() > config_.order) {
      *err = "overfull node " + std::to_string(id);
      return false;
    }
    for (std::size_t i = 0; i < n.keys.size(); ++i) {
      if (i > 0 && n.keys[i - 1] >= n.keys[i]) {
        *err = "unsorted keys in node " + std::to_string(id);
        return false;
      }
      if ((has_lo && n.keys[i] < lo) || (has_hi && n.keys[i] >= hi)) {
        *err = "key out of separator bounds in node " + std::to_string(id);
        return false;
      }
    }
    if (n.leaf) {
      if (depth + 1 != height_) {
        *err = "leaf " + std::to_string(id) + " at depth " +
               std::to_string(depth) + ", height " + std::to_string(height_);
        return false;
      }
      counted += n.keys.size();
      return true;
    }
    if (n.children.size() != n.keys.size() + 1) {
      *err = "internal node " + std::to_string(id) + " child count mismatch";
      return false;
    }
    if (id != root_ && n.keys.empty()) {
      *err = "empty internal node " + std::to_string(id);
      return false;
    }
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      const bool child_has_lo = i > 0 ? true : has_lo;
      const Key child_lo = i > 0 ? n.keys[i - 1] : lo;
      const bool child_has_hi = i < n.keys.size() ? true : has_hi;
      const Key child_hi = i < n.keys.size() ? n.keys[i] : hi;
      if (!walk(n.children[i], depth + 1, child_has_lo, child_lo,
                child_has_hi, child_hi, err)) {
        return false;
      }
    }
    return true;
  };

  std::string err;
  if (!walk(root_, 0, false, 0, false, 0, &err)) return fail(err);
  if (counted != size_) {
    return fail("size mismatch: counted " + std::to_string(counted) +
                " keys, size() = " + std::to_string(size_));
  }

  // Leaf chain: walk from the leftmost leaf; keys must be globally
  // sorted and the chain must cover exactly size_ entries.
  PageId cur = root_;
  while (!node(cur).leaf) cur = node(cur).children.front();
  std::size_t chained = 0;
  bool have_prev = false;
  Key prev = 0;
  while (cur != kInvalidPage) {
    const Node& n = node(cur);
    for (const Key k : n.keys) {
      if (have_prev && prev >= k) return fail("leaf chain out of order");
      prev = k;
      have_prev = true;
      ++chained;
    }
    cur = n.next;
  }
  if (chained != size_) {
    return fail("leaf chain covers " + std::to_string(chained) +
                " keys, size() = " + std::to_string(size_));
  }
  return true;
}

// ------------------------------------------------------------ NodeCache

bool NodeCache::access(PageId id) {
  const auto it = map_.find(id);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.erase(it->second);
  lru_.push_front(id);
  it->second = lru_.begin();
  return true;
}

void NodeCache::insert(PageId id) {
  if (capacity_ == 0 || map_.count(id) != 0) return;
  if (map_.size() >= capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(id);
  map_.emplace(id, lru_.begin());
}

bool NodeCache::invalidate(PageId id) {
  const auto it = map_.find(id);
  if (it == map_.end()) return false;
  lru_.erase(it->second);
  map_.erase(it);
  ++stats_.invalidations;
  return true;
}

}  // namespace lnic::kvstore
