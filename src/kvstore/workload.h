// Transactional workload generators for the NIC-resident store: the six
// standard YCSB mixes (A-F) and a TPC-C-lite new-order mix, both driven
// by loadgen:: Zipf popularity so contention is a knob (zipf_s = 0 is
// uniform; 0.99 concentrates traffic on a few hot keys).
//
// Generators are pure request factories: next() draws one TxnRequest
// from seeded RNG streams, and populate() pre-seeds the store's tree
// directly (no simulated time). Arrival pacing is the caller's business
// (the bench uses loadgen::ArrivalSpec::poisson).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "kvstore/txn.h"
#include "loadgen/popularity.h"

namespace lnic::kvstore {

enum class YcsbMix : std::uint8_t { kA, kB, kC, kD, kE, kF };
const char* to_string(YcsbMix mix);

struct YcsbConfig {
  YcsbMix mix = YcsbMix::kA;
  /// Pre-loaded record count; must be a power of two (the key scrambler
  /// multiplies ranks by an odd constant mod records).
  std::size_t records = 1 << 14;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
};

/// YCSB core mixes over a scrambled integer keyspace:
///   A 50% read / 50% update        B 95% read / 5% update
///   C 100% read                    D 95% read-latest / 5% insert
///   E 95% scan / 5% insert         F 50% read / 50% read-modify-write
/// Mixes A/B/C/F scramble Zipf ranks through an odd-multiplier bijection
/// so hot keys scatter across the tree; D/E keep identity keys so
/// "latest" reads and range scans are meaningful.
class YcsbWorkload {
 public:
  explicit YcsbWorkload(YcsbConfig config);

  /// Loads the initial records straight into the tree (no sim time).
  void populate(TxnStore* store);

  /// Draws the next multi-op transaction of the configured mix.
  TxnRequest next();

  const YcsbConfig& config() const { return config_; }

 private:
  Key key_for(std::size_t rank) const;
  TxnOp next_op();

  YcsbConfig config_;
  loadgen::ZipfSelector zipf_;
  Rng rng_;
  std::uint64_t insert_cursor_;  // next key for D/E inserts
};

// ------------------------------------------------------------ TPC-C-lite

struct TpccLiteConfig {
  /// Contention knob: district next-order rows are per-(warehouse,
  /// district), so fewer warehouses concentrate RMW traffic.
  std::uint32_t warehouses = 1;
  std::uint64_t seed = 1;
};

/// TPC-C new-order, reduced to its KV skeleton: one RMW of the
/// district's next-order-id row (the classic hot spot), 5-15 item reads
/// with Zipf-popular items each paired with a stock RMW in the home
/// warehouse, and one order-row insert.
class TpccLiteWorkload {
 public:
  /// Item-table rows; populate() loads each with one stock row per
  /// warehouse.
  static constexpr std::size_t kItems = 1 << 12;

  explicit TpccLiteWorkload(TpccLiteConfig config);

  void populate(TxnStore* store);
  TxnRequest next_order();

  const TpccLiteConfig& config() const { return config_; }

  // Table tags in the top key byte keep the tables disjoint in one tree.
  static Key district_key(std::uint32_t wh, std::uint32_t district) {
    return (1ull << 56) | (static_cast<Key>(wh) << 8) | district;
  }
  static Key item_key(std::size_t item) { return (2ull << 56) | item; }
  static Key stock_key(std::uint32_t wh, std::size_t item) {
    return (3ull << 56) | (static_cast<Key>(wh) << 24) | item;
  }
  static Key order_key(std::uint64_t seq) { return (4ull << 56) | seq; }

 private:
  TpccLiteConfig config_;
  loadgen::ZipfSelector zipf_;
  Rng rng_;
  std::uint64_t order_cursor_ = 0;
};

}  // namespace lnic::kvstore
