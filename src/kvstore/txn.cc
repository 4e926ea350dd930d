#include "kvstore/txn.h"

#include <algorithm>

#include "common/rng.h"
#include "net/packet.h"

namespace lnic::kvstore {

using net::Packet;
using net::PacketKind;

const char* to_string(LockProtocol proto) {
  switch (proto) {
    case LockProtocol::kNoWait:
      return "no_wait";
    case LockProtocol::kWaitDie:
      return "wait_die";
  }
  return "?";
}

namespace {

/// Cost of touching one NIC-cached page (match/action + SRAM read).
constexpr SimDuration kNicNodeService = nanoseconds(250);
/// Retry backoff: doubles per aborted attempt from the base up to the cap.
constexpr SimDuration kBackoffBase = microseconds(5);
constexpr SimDuration kBackoffCap = microseconds(80);

bool compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

std::uint64_t read_u64_at(const net::BufferView& body, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && at + i < body.size(); ++i) {
    v |= static_cast<std::uint64_t>(body[at + i]) << (8 * i);
  }
  return v;
}

std::uint16_t read_u16_at(const net::BufferView& body, std::size_t at) {
  std::uint16_t v = 0;
  for (std::size_t i = 0; i < 2 && at + i < body.size(); ++i) {
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(body[at + i]) << (8 * i));
  }
  return v;
}

void append_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

/// True for the kind bytes that name an OpKind.
bool is_op_kind(std::uint8_t kind) {
  switch (static_cast<OpKind>(kind)) {
    case OpKind::kRead:
    case OpKind::kWrite:
    case OpKind::kInsert:
    case OpKind::kScan:
    case OpKind::kRmw:
      return true;
  }
  return false;
}

}  // namespace

// ------------------------------------------------------------- LockTable

LockOutcome LockTable::try_acquire(Key key, TxnId txn, LockMode mode,
                                   TxnTimestamp ts, LockProtocol proto) {
  Entry& entry = table_[key];

  // Re-entrant requests: already exclusive covers everything; shared
  // covers shared. A shared->exclusive upgrade falls through to the
  // conflict check against the *other* holders.
  Holder* own = nullptr;
  for (Holder& h : entry.holders) {
    if (h.txn == txn) {
      own = &h;
      break;
    }
  }
  if (own != nullptr &&
      (own->mode == LockMode::kExclusive || mode == LockMode::kShared)) {
    return LockOutcome::kGranted;
  }

  // Blockers: incompatible holders, plus incompatible queued waiters —
  // the queue is never overtaken, so a conflicting waiter blocks too.
  bool blocked = false;
  TxnTimestamp oldest_blocker;
  bool have_blocker = false;
  auto consider = [&](TxnId other, LockMode other_mode, TxnTimestamp other_ts) {
    if (other == txn || compatible(mode, other_mode)) return;
    blocked = true;
    if (!have_blocker || other_ts < oldest_blocker) {
      oldest_blocker = other_ts;
      have_blocker = true;
    }
  };
  for (const Holder& h : entry.holders) consider(h.txn, h.mode, h.ts);
  for (const Waiter& w : entry.waiters) consider(w.txn, w.mode, w.ts);

  if (!blocked) {
    if (own != nullptr) {
      own->mode = LockMode::kExclusive;  // sole-holder upgrade
    } else {
      entry.holders.push_back({txn, mode, ts});
      keys_of_[txn].insert(key);
    }
    return LockOutcome::kGranted;
  }

  if (proto == LockProtocol::kNoWait) return LockOutcome::kAbort;

  // WAIT_DIE: wait only when strictly older than every blocker, so every
  // wait-for edge points old -> young and no cycle can form.
  if (!(ts < oldest_blocker)) return LockOutcome::kAbort;
  auto pos = entry.waiters.begin();
  while (pos != entry.waiters.end() && pos->ts < ts) ++pos;
  entry.waiters.insert(pos, {txn, mode, ts});
  keys_of_[txn].insert(key);
  ++waiting_;
  return LockOutcome::kWait;
}

void LockTable::promote(Key key, Entry& entry, std::vector<TxnId>* granted) {
  while (!entry.waiters.empty()) {
    const Waiter w = entry.waiters.front();
    // Grantable when every holder is either the waiter itself (the
    // shared->exclusive upgrade case) or mode-compatible with it.
    bool ok = true;
    Holder* own = nullptr;
    for (Holder& h : entry.holders) {
      if (h.txn == w.txn) {
        own = &h;
        continue;
      }
      if (!compatible(w.mode, h.mode)) {
        ok = false;
        break;
      }
    }
    if (!ok) return;
    entry.waiters.erase(entry.waiters.begin());
    --waiting_;
    if (own != nullptr) {
      own->mode = LockMode::kExclusive;
    } else {
      entry.holders.push_back({w.txn, w.mode, w.ts});
    }
    keys_of_[w.txn].insert(key);
    granted->push_back(w.txn);
  }
}

std::vector<TxnId> LockTable::release_all(TxnId txn) {
  std::vector<TxnId> granted;
  const auto keys_it = keys_of_.find(txn);
  if (keys_it == keys_of_.end()) return granted;
  const std::set<Key> keys = std::move(keys_it->second);
  keys_of_.erase(keys_it);
  for (const Key key : keys) {
    const auto it = table_.find(key);
    if (it == table_.end()) continue;
    Entry& entry = it->second;
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [txn](const Holder& h) { return h.txn == txn; }),
        entry.holders.end());
    const auto before = entry.waiters.size();
    entry.waiters.erase(
        std::remove_if(entry.waiters.begin(), entry.waiters.end(),
                       [txn](const Waiter& w) { return w.txn == txn; }),
        entry.waiters.end());
    waiting_ -= before - entry.waiters.size();
    promote(key, entry, &granted);
    if (entry.holders.empty() && entry.waiters.empty()) table_.erase(it);
  }
  return granted;
}

// -------------------------------------------------------------- TxnStore

TxnStore::TxnStore(sim::Simulator& sim, net::Network& network,
                   TxnStoreConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      cache_(config.nic_cache_nodes),
      host_(sim, network),
      qp_(sim, network) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); });
}

std::vector<std::uint8_t> TxnStore::encode_txn(const TxnRequest& request) {
  std::vector<std::uint8_t> body;
  body.reserve(2 + request.ops.size() * 19);
  append_u16(&body, static_cast<std::uint16_t>(request.ops.size()));
  for (const TxnOp& op : request.ops) {
    body.push_back(static_cast<std::uint8_t>(op.kind));
    append_u64(&body, op.key);
    append_u64(&body, op.value);
    append_u16(&body, op.scan_len);
  }
  return body;
}

void TxnStore::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kKvRequest) return;
  // Requests are single-packet by construction (the largest TXN bodies
  // are a few hundred bytes, well under kMaxPayload).
  if (packet.lambda.frag_count > 1) return;
  const net::BufferView& body = packet.payload;

  TxnState state;
  state.networked = true;
  state.reply_to = packet.src;
  state.reply_id = packet.lambda.request_id;
  state.reply_op = packet.lambda.workload_id;

  switch (packet.lambda.workload_id) {
    case kOpGet: {
      ++stats_.gets;
      state.req.ops.push_back(
          {OpKind::kRead, net::decode_kv_request(body).key, 0, 0});
      break;
    }
    case kOpSet: {
      ++stats_.sets;
      const net::KvRequest kv = net::decode_kv_request(body);
      state.req.ops.push_back({OpKind::kWrite, kv.key, kv.value, 0});
      break;
    }
    case kOpTxn: {
      const std::uint16_t n = read_u16_at(body, 0);
      std::size_t at = 2;
      for (std::uint16_t i = 0; i < n && at + 19 <= body.size(); ++i) {
        if (!is_op_kind(body[at])) return;
        TxnOp op;
        op.kind = static_cast<OpKind>(body[at]);
        op.key = read_u64_at(body, at + 1);
        op.value = read_u64_at(body, at + 9);
        op.scan_len = read_u16_at(body, at + 17);
        state.req.ops.push_back(op);
        at += 19;
      }
      ++stats_.txns;
      break;
    }
    default:
      return;
  }
  submit(std::move(state));
}

void TxnStore::execute(TxnRequest request, TxnCallback callback) {
  ++stats_.txns;
  TxnState state;
  state.req = std::move(request);
  state.cb = std::move(callback);
  submit(std::move(state));
}

void TxnStore::submit(TxnState state) {
  const TxnId id = next_txn_++;
  state.id = id;
  state.ts = TxnTimestamp{sim_.now(), next_seq_++};
  txns_.emplace(id, std::move(state));
  start_attempt(id);
}

void TxnStore::start_attempt(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  st.op_idx = 0;
  st.pages.clear();
  st.page_idx = 0;
  st.write_buffer.clear();
  st.reads = 0;
  st.read_xor = 0;
  step_op(id);
}

void TxnStore::step_op(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  if (st.op_idx >= st.req.ops.size()) {
    commit(id);
    return;
  }
  const TxnOp& op = st.req.ops[st.op_idx];
  const LockMode mode =
      (op.kind == OpKind::kRead || op.kind == OpKind::kScan)
          ? LockMode::kShared
          : LockMode::kExclusive;
  switch (locks_.try_acquire(op.key, id, mode, st.ts, config_.protocol)) {
    case LockOutcome::kGranted:
      charge_pages(id);
      return;
    case LockOutcome::kWait:
      ++stats_.lock_waits;
      return;  // parked; resume_granted() re-enters at charge_pages
    case LockOutcome::kAbort:
      on_abort(id);
      return;
  }
}

void TxnStore::charge_pages(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  const TxnOp& op = st.req.ops[st.op_idx];
  st.pages.clear();
  st.page_idx = 0;
  if (op.kind == OpKind::kScan) {
    tree_.scan_path(op.key, op.scan_len, &st.pages);
  } else {
    tree_.path_for(op.key, &st.pages);
  }
  step_page(id);
}

void TxnStore::step_page(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  if (st.page_idx >= st.pages.size()) {
    finish_op(id);
    return;
  }
  const PageId page = st.pages[st.page_idx++];
  if (cache_.access(page)) {
    sim_.schedule(kNicNodeService, [this, id]() { step_page(id); });
  } else {
    ++stats_.page_fetches;
    qp_.read(host_.node(),
             static_cast<std::uint64_t>(page) * tree_.node_bytes(),
             tree_.node_bytes(), [this, id, page]() {
               cache_.insert(page);
               step_page(id);
             });
  }
}

void TxnStore::finish_op(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  const TxnOp& op = st.req.ops[st.op_idx];
  switch (op.kind) {
    case OpKind::kRead: {
      Value v = 0;
      const auto buf = st.write_buffer.find(op.key);
      if (buf != st.write_buffer.end()) {
        v = buf->second;  // read-your-writes
      } else {
        tree_.get(op.key, &v);
      }
      st.read_xor ^= v;
      ++st.reads;
      break;
    }
    case OpKind::kScan: {
      std::vector<std::pair<Key, Value>> out;
      tree_.scan(op.key, op.scan_len, &out);
      for (const auto& [k, v] : out) {
        st.read_xor ^= v;
        ++st.reads;
      }
      break;
    }
    case OpKind::kWrite:
    case OpKind::kInsert:
      st.write_buffer[op.key] = op.value;
      break;
    case OpKind::kRmw: {
      Value v = 0;
      const auto buf = st.write_buffer.find(op.key);
      if (buf != st.write_buffer.end()) {
        v = buf->second;
      } else {
        tree_.get(op.key, &v);
      }
      st.read_xor ^= v;
      ++st.reads;
      st.write_buffer[op.key] = v + (op.value == 0 ? 1 : op.value);
      break;
    }
  }
  ++st.op_idx;
  step_op(id);
}

void TxnStore::commit(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  // Apply buffered writes to the authoritative tree; collect the pages
  // they dirtied.
  std::set<PageId> dirty;
  for (const auto& [k, v] : st.write_buffer) {
    tree_.put(k, v);
    dirty.insert(tree_.last_dirty().begin(), tree_.last_dirty().end());
  }
  if (dirty.empty()) {
    finish_commit(id);  // read-only: nothing to write back
    return;
  }
  // Write-invalidate coherence: the NIC drops its copies of every page
  // the commit touched; the next reader re-fetches from host memory.
  for (const PageId p : dirty) cache_.invalidate(p);
  const std::uint64_t addr =
      static_cast<std::uint64_t>(*dirty.begin()) * tree_.node_bytes();
  const Bytes len = dirty.size() * tree_.node_bytes();
  qp_.write(host_.node(), addr, len, [this, id]() { finish_commit(id); });
}

void TxnStore::finish_commit(TxnId id) {
  ++stats_.commits;
  finish_txn(id, TxnStatus::kCommitted);
}

void TxnStore::on_abort(TxnId id) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  ++stats_.aborts;
  if (st.attempt > config_.max_retries) {
    ++stats_.retries_exhausted;
    sim_.flight_recorder().record(
        sim_.now(), flightrec::Kind::kTxnRetryExhausted, st.id, st.attempt,
        "txn " + std::to_string(st.id) + " (" +
            to_string(config_.protocol) + ") aborted " +
            std::to_string(st.attempt) + " times; retry budget exhausted");
    finish_txn(id, TxnStatus::kAborted);
    return;
  }
  resume_granted(locks_.release_all(id));
  ++st.attempt;
  sim_.schedule(backoff_delay(st), [this, id]() { start_attempt(id); });
}

void TxnStore::finish_txn(TxnId id, TxnStatus status) {
  const auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState st = std::move(it->second);
  txns_.erase(it);
  TxnResult result;
  result.status = status;
  result.retries =
      status == TxnStatus::kCommitted ? st.attempt - 1 : st.attempt;
  result.reads = st.reads;
  result.read_xor = st.read_xor;
  resume_granted(locks_.release_all(st.id));
  if (st.networked) reply(st, result);
  if (st.cb) st.cb(result);
}

void TxnStore::resume_granted(const std::vector<TxnId>& granted) {
  for (const TxnId g : granted) {
    // Resume on a fresh event so grants never re-enter the releasing
    // txn's stack; the granted txn's pending op now holds its lock.
    sim_.schedule(0, [this, g]() { charge_pages(g); });
  }
}

SimDuration TxnStore::backoff_delay(const TxnState& state) const {
  SimDuration base = kBackoffBase;
  for (std::uint32_t i = 1; i < state.attempt && base < kBackoffCap; ++i) {
    base = std::min<SimDuration>(kBackoffCap, base * 2);
  }
  // Up to 25% deterministic jitter, hashed as proto/rpc.cc's retransmits
  // are, so replays stay bit-reproducible.
  static_assert(kBackoffBase / 4 > 0);
  base += static_cast<SimDuration>(
      splitmix64(state.id * kSplitMixGamma + state.attempt) %
      static_cast<std::uint64_t>(base / 4));
  return base;
}

void TxnStore::reply(const TxnState& state, const TxnResult& result) {
  std::vector<std::uint8_t> body;
  if (state.reply_op == kOpTxn) {
    body.push_back(static_cast<std::uint8_t>(result.status));
    body.push_back(static_cast<std::uint8_t>(
        std::min<std::uint32_t>(result.retries, 255)));
    append_u16(&body, static_cast<std::uint16_t>(
                          std::min<std::uint32_t>(result.reads, 0xFFFF)));
    append_u64(&body, result.read_xor);
  } else if (state.reply_op == kOpSet) {
    body = net::encode_kv_reply(state.req.ops[0].value);
  } else {
    body = net::encode_kv_reply(result.read_xor);
  }
  Packet p;
  p.src = node_;
  p.dst = state.reply_to;
  p.kind = PacketKind::kKvResponse;
  p.lambda.workload_id = state.reply_op;
  p.lambda.request_id = state.reply_id;
  p.payload = std::move(body);
  network_.send(std::move(p));
}

}  // namespace lnic::kvstore
