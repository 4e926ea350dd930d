// Transactional NIC-resident store: multi-key transactions over the
// B+-tree (btree.h) with two-phase locking, executed by a store node on
// the simulated fabric.
//
// Concurrency control is strict 2PL with two conflict-resolution
// protocols selected per store (SmartOffloading's NO_WAIT / WAIT_DIE):
//
//  - NO_WAIT: any lock conflict aborts the requester immediately.
//    Trivially deadlock-free (no waiting, hence no wait-for edges).
//  - WAIT_DIE: the requester compares its timestamp against every
//    incompatible holder *and* queued waiter; strictly older than all of
//    them -> it waits (in timestamp order), otherwise it dies (aborts).
//    Wait-for edges therefore always point old -> young, so no cycle can
//    form. Timestamps are (SimTime of first attempt, global sequence)
//    and are retained across retries, so an aborted transaction ages
//    until it is the oldest contender and must eventually win — the
//    livelock bound exercised by tests/txn_test.cc.
//
// Aborted transactions retry after exponential backoff with
// deterministic jitter (hash of txn id and attempt — no RNG draws on
// the retry path, matching proto/rpc.cc), up to a retry budget; budget
// exhaustion is recorded in the flight recorder.
//
// Timing model: locks and the authoritative tree are synchronous
// in-memory state; what costs simulated time is *page movement*. Every
// operation charges its root-to-leaf page path against the NIC-resident
// NodeCache — a hit costs NIC-local service time, a miss a one-sided
// RDMA read of the page from the HostMemoryNode — and a committing
// writeback pushes the dirty pages back and invalidates the NIC's
// copies (write-invalidate coherence).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "kvstore/btree.h"
#include "net/network.h"
#include "net/packet.h"
#include "proto/rdma.h"
#include "sim/simulator.h"

namespace lnic::kvstore {

enum class LockProtocol : std::uint8_t { kNoWait, kWaitDie };
const char* to_string(LockProtocol proto);

enum class LockMode : std::uint8_t { kShared, kExclusive };
enum class LockOutcome : std::uint8_t { kGranted, kWait, kAbort };

using TxnId = std::uint64_t;

/// Deterministic total order for WAIT_DIE: first-attempt simulated time
/// breaks ties by a per-store global sequence. Smaller = older.
struct TxnTimestamp {
  SimTime time = 0;
  std::uint64_t seq = 0;

  bool operator<(const TxnTimestamp& o) const {
    return time != o.time ? time < o.time : seq < o.seq;
  }
};

/// Per-key S/X lock table. Waiters queue in timestamp order (oldest
/// first) and are granted strictly from the head — no overtaking — so
/// grant order is deterministic and WAIT_DIE's old->young invariant
/// survives across grants.
class LockTable {
 public:
  LockOutcome try_acquire(Key key, TxnId txn, LockMode mode,
                          TxnTimestamp ts, LockProtocol proto);

  /// Releases every lock `txn` holds (and any queued waits). Returns the
  /// transactions whose queued requests became granted, in deterministic
  /// (key, queue) order.
  std::vector<TxnId> release_all(TxnId txn);

  std::size_t locked_keys() const { return table_.size(); }
  std::size_t waiting() const { return waiting_; }

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
    TxnTimestamp ts;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    TxnTimestamp ts;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::vector<Waiter> waiters;  // sorted by ts, oldest first
  };

  /// Grants queue-head waiters that are now compatible; appends the
  /// granted txn ids to `granted`.
  void promote(Key key, Entry& entry, std::vector<TxnId>* granted);

  std::map<Key, Entry> table_;
  std::map<TxnId, std::set<Key>> keys_of_;
  std::size_t waiting_ = 0;
};

// -------------------------------------------------------------- TxnStore

/// The values are the TXN wire encoding; 3 is unassigned.
enum class OpKind : std::uint8_t {
  kRead = 0,    // shared lock, point read
  kWrite = 1,   // exclusive lock, buffered blind write
  kInsert = 2,  // exclusive lock, buffered insert
  kScan = 4,    // shared lock on start key, range read
  kRmw = 5,     // exclusive lock, read + buffered increment
};

struct TxnOp {
  OpKind kind = OpKind::kRead;
  Key key = 0;
  Value value = 0;
  std::uint16_t scan_len = 0;
};

struct TxnRequest {
  std::vector<TxnOp> ops;
};

enum class TxnStatus : std::uint8_t { kCommitted = 0, kAborted = 1 };

struct TxnResult {
  TxnStatus status = TxnStatus::kAborted;
  std::uint32_t retries = 0;  // aborted attempts before the outcome
  std::uint32_t reads = 0;    // values produced by reads/scans/RMWs
  std::uint64_t read_xor = 0; // XOR of every value read (determinism probe)
};

struct TxnStoreConfig {
  /// NIC-resident page-cache capacity in nodes; 0 = host-backend
  /// baseline (every page access goes to host memory).
  std::size_t nic_cache_nodes = 256;
  LockProtocol protocol = LockProtocol::kNoWait;
  /// Abort/retry budget: a txn aborts up to max_retries times and is
  /// reported kAborted (retry-exhausted) on the next conflict.
  std::uint32_t max_retries = 8;
};

struct TxnStoreStats {
  std::uint64_t gets = 0;   // networked single-key GETs
  std::uint64_t sets = 0;   // networked single-key SETs
  std::uint64_t txns = 0;   // multi-op transactions submitted
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;       // aborted attempts (retries included)
  std::uint64_t lock_waits = 0;   // WAIT_DIE waits entered
  std::uint64_t retries_exhausted = 0;
  std::uint64_t page_fetches = 0;  // NIC cache misses served over RDMA
};

/// Wire format (PacketKind::kKvRequest to node(), kKvResponse back):
///  - workload_id 0 GET and 1 SET: net/packet.h's KV GET/SET format
///  - workload_id 2, TXN:  body [n u16] then n x
///        [kind u8][key u64][value u64][scan_len u16]
///    reply [status u8][retries u8][reads u16][read_xor u64]
/// A request with any other workload_id, or a TXN op whose kind byte is
/// not an OpKind, is dropped without a reply.
class TxnStore {
 public:
  static constexpr WorkloadId kOpGet = net::kKvGet;
  static constexpr WorkloadId kOpSet = net::kKvSet;
  static constexpr WorkloadId kOpTxn = 2;

  TxnStore(sim::Simulator& sim, net::Network& network,
           TxnStoreConfig config = {});

  /// The store's fabric endpoint (clients send kKvRequest here).
  NodeId node() const { return node_; }

  /// Pre-seeds the tree directly: no locks, no simulated time, no stats.
  void load(Key key, Value value) { tree_.put(key, value); }

  using TxnCallback = std::function<void(const TxnResult&)>;
  /// Direct in-sim submission (tests, lnicctl, co-located lambdas); the
  /// callback fires at commit/final-abort time.
  void execute(TxnRequest request, TxnCallback callback);

  const TxnStoreStats& stats() const { return stats_; }
  const NodeCacheStats& cache_stats() const { return cache_.stats(); }
  const proto::HostMemoryStats& host_stats() const { return host_.stats(); }
  const BPlusTree& tree() const { return tree_; }
  LockProtocol protocol() const { return config_.protocol; }
  std::size_t inflight() const { return txns_.size(); }

  /// Serializes TXN ops into the wire body (see class comment).
  static std::vector<std::uint8_t> encode_txn(const TxnRequest& request);

 private:
  struct TxnState {
    TxnId id = 0;
    TxnTimestamp ts;
    TxnRequest req;
    TxnCallback cb;
    std::uint32_t attempt = 1;
    // Per-attempt progress: current op, pages still to charge for it.
    std::size_t op_idx = 0;
    std::vector<PageId> pages;
    std::size_t page_idx = 0;
    // Per-attempt buffered effects (applied to the tree at commit).
    std::map<Key, Value> write_buffer;
    std::uint32_t reads = 0;
    std::uint64_t read_xor = 0;
    // Reply routing for networked submissions.
    bool networked = false;
    NodeId reply_to = kInvalidNode;
    RequestId reply_id = 0;
    WorkloadId reply_op = kOpTxn;
  };

  void handle_packet(const net::Packet& packet);
  void submit(TxnState state);
  void start_attempt(TxnId id);
  void step_op(TxnId id);
  void charge_pages(TxnId id);
  void step_page(TxnId id);
  void finish_op(TxnId id);
  void commit(TxnId id);
  void finish_commit(TxnId id);
  void on_abort(TxnId id);
  void finish_txn(TxnId id, TxnStatus status);
  void resume_granted(const std::vector<TxnId>& granted);
  SimDuration backoff_delay(const TxnState& state) const;
  void reply(const TxnState& state, const TxnResult& result);

  sim::Simulator& sim_;
  net::Network& network_;
  TxnStoreConfig config_;
  BPlusTree tree_;
  NodeCache cache_;
  LockTable locks_;
  proto::HostMemoryNode host_;
  proto::RdmaQp qp_;
  NodeId node_;
  TxnId next_txn_ = 1;
  std::uint64_t next_seq_ = 0;
  std::map<TxnId, TxnState> txns_;
  TxnStoreStats stats_;
};

}  // namespace lnic::kvstore
