#include "kvstore/workload.h"

#include <algorithm>

namespace lnic::kvstore {

namespace {
constexpr std::size_t kOpsPerTxn = 4;        // YCSB ops per transaction
constexpr std::uint16_t kMaxScanLen = 16;    // YCSB-E scan length bound
constexpr std::uint32_t kDistrictsPerWh = 10;
constexpr double kItemZipfS = 0.8;  // TPC-C-lite item popularity skew
}  // namespace

const char* to_string(YcsbMix mix) {
  switch (mix) {
    case YcsbMix::kA: return "A";
    case YcsbMix::kB: return "B";
    case YcsbMix::kC: return "C";
    case YcsbMix::kD: return "D";
    case YcsbMix::kE: return "E";
    case YcsbMix::kF: return "F";
  }
  return "?";
}

YcsbWorkload::YcsbWorkload(YcsbConfig config)
    : config_(config),
      zipf_(config.records, config.zipf_s, config.seed),
      rng_(config.seed ^ 0xBADC0FFEE0DDF00Dull),
      insert_cursor_(config.records) {}

Key YcsbWorkload::key_for(std::size_t rank) const {
  switch (config_.mix) {
    case YcsbMix::kD:
    case YcsbMix::kE:
      return rank;  // identity: "latest" and ranges must be meaningful
    default:
      // Odd-multiplier bijection mod the (power-of-two) record count:
      // Zipf-hot ranks scatter across the key space and the tree.
      return (rank * 0x9E3779B1ull) & (config_.records - 1);
  }
}

void YcsbWorkload::populate(TxnStore* store) {
  Rng loader(config_.seed ^ 0x5EEDED5EEDED5EEDull);
  for (std::size_t rank = 0; rank < config_.records; ++rank) {
    store->load(key_for(rank), loader.next_u64());
  }
}

TxnOp YcsbWorkload::next_op() {
  const std::size_t rank = zipf_.sample();
  const double roll = rng_.next_double();
  TxnOp op;
  switch (config_.mix) {
    case YcsbMix::kA:
      op.kind = roll < 0.5 ? OpKind::kRead : OpKind::kWrite;
      op.key = key_for(rank);
      break;
    case YcsbMix::kB:
      op.kind = roll < 0.95 ? OpKind::kRead : OpKind::kWrite;
      op.key = key_for(rank);
      break;
    case YcsbMix::kC:
      op.kind = OpKind::kRead;
      op.key = key_for(rank);
      break;
    case YcsbMix::kD:
      if (roll < 0.95) {
        // Read-latest: Zipf rank 0 is the most recent insert.
        op.kind = OpKind::kRead;
        const std::uint64_t newest = insert_cursor_ - 1;
        op.key = newest - std::min<std::uint64_t>(rank, newest);
      } else {
        op.kind = OpKind::kInsert;
        op.key = insert_cursor_++;
      }
      break;
    case YcsbMix::kE:
      if (roll < 0.95) {
        op.kind = OpKind::kScan;
        op.key = key_for(rank);
        op.scan_len = static_cast<std::uint16_t>(
            1 + rng_.next_below(kMaxScanLen));
      } else {
        op.kind = OpKind::kInsert;
        op.key = insert_cursor_++;
      }
      break;
    case YcsbMix::kF:
      op.kind = roll < 0.5 ? OpKind::kRead : OpKind::kRmw;
      op.key = key_for(rank);
      break;
  }
  if (op.kind == OpKind::kWrite || op.kind == OpKind::kInsert) {
    op.value = rng_.next_u64();
  }
  return op;
}

TxnRequest YcsbWorkload::next() {
  TxnRequest req;
  req.ops.reserve(kOpsPerTxn);
  for (std::size_t i = 0; i < kOpsPerTxn; ++i) {
    req.ops.push_back(next_op());
  }
  return req;
}

// ------------------------------------------------------------ TPC-C-lite

TpccLiteWorkload::TpccLiteWorkload(TpccLiteConfig config)
    : config_(config),
      zipf_(kItems, kItemZipfS, config.seed ^ 0x7C0C7C0C7C0C7C0Cull),
      rng_(config.seed ^ 0x0DDC0DE50DDC0DE5ull) {}

void TpccLiteWorkload::populate(TxnStore* store) {
  for (std::uint32_t w = 0; w < config_.warehouses; ++w) {
    for (std::uint32_t d = 0; d < kDistrictsPerWh; ++d) {
      store->load(district_key(w, d), 1);  // next_o_id starts at 1
    }
  }
  Rng loader(config_.seed ^ 0x57C0CED57C0CED57ull);
  for (std::size_t i = 0; i < kItems; ++i) {
    store->load(item_key(i), loader.next_u64());
    for (std::uint32_t w = 0; w < config_.warehouses; ++w) {
      store->load(stock_key(w, i), 100);  // initial stock quantity
    }
  }
}

TxnRequest TpccLiteWorkload::next_order() {
  TxnRequest req;
  const std::uint32_t w =
      static_cast<std::uint32_t>(rng_.next_below(config_.warehouses));
  const std::uint32_t d =
      static_cast<std::uint32_t>(rng_.next_below(kDistrictsPerWh));
  // The hot spot: allocate the order id from the district row.
  req.ops.push_back({OpKind::kRmw, district_key(w, d), 1, 0});
  const std::size_t n_items = 5 + rng_.next_below(11);  // 5..15 lines
  for (std::size_t line = 0; line < n_items; ++line) {
    const std::size_t item = zipf_.sample();
    req.ops.push_back({OpKind::kRead, item_key(item), 0, 0});
    req.ops.push_back({OpKind::kRmw, stock_key(w, item), 1, 0});
  }
  req.ops.push_back(
      {OpKind::kInsert, order_key(order_cursor_++), rng_.next_u64(), 0});
  return req;
}

}  // namespace lnic::kvstore
