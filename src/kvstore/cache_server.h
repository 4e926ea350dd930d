// Memcached-like cache server (§6.2b): the external dependency of the
// key-value client lambdas. Speaks GET/SET over single-packet RPCs on
// the simulated fabric; bounded capacity with LRU eviction.
//
// The master node M1 runs one of these in the paper's testbed; both the
// NIC-resident and host-resident key-value lambdas query it, so its
// service time and network position are identical across backends — the
// measured differences come from the backends alone.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/types.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::kvstore {

struct CacheConfig {
  std::size_t capacity = 1 << 20;          // max resident entries
};

struct CacheStats {
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class CacheServer {
 public:
  CacheServer(sim::Simulator& sim, net::Network& network,
              CacheConfig config = {});

  NodeId node() const { return node_; }
  const CacheStats& stats() const { return stats_; }
  std::size_t size() const { return map_.size(); }

  /// Direct (non-networked) accessors for tests and pre-seeding. They
  /// maintain LRU order and CacheStats exactly like the networked path
  /// (which is implemented on top of them) — only the fabric hop and
  /// service delay differ.
  void put(std::uint64_t key, std::uint64_t value);
  bool get(std::uint64_t key, std::uint64_t& value_out);

 private:
  using LruPos = std::list<std::uint64_t>::iterator;

  void handle_packet(const net::Packet& packet);
  /// Moves a key's LRU node to the front (a splice: no node is freed or
  /// allocated).
  void touch(LruPos pos) { lru_.splice(lru_.begin(), lru_, pos); }

  sim::Simulator& sim_;
  net::Network& network_;
  CacheConfig config_;
  NodeId node_;

  // LRU: most recent at front.
  std::list<std::uint64_t> lru_;
  struct Entry {
    std::uint64_t value;
    LruPos lru_pos;
  };
  std::unordered_map<std::uint64_t, Entry> map_;
  CacheStats stats_;
};

}  // namespace lnic::kvstore
