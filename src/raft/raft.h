// Raft consensus (Ongaro & Ousterhout 2014), as used by etcd — the
// coordination substrate of the serverless framework (§6.1.1: "a
// Raft-based distributed key-value store, called etcd, to sync
// lambda-related states ... with the gateway").
//
// Implements leader election, log replication and commitment over an
// injectable message transport (SimTransport delivers through the
// discrete-event engine with configurable delay and loss, so safety
// properties are testable under partitions and message drops). Log
// compaction/snapshots are out of scope — framework logs are small.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace lnic::raft {

using NodeIndex = std::uint32_t;

/// A replicated state-machine command (etcd-style KV operation).
struct Command {
  enum class Op : std::uint8_t { kPut, kDelete } op = Op::kPut;
  std::string key;
  std::string value;

  friend bool operator==(const Command&, const Command&) = default;
};

struct LogEntry {
  std::uint64_t term = 0;
  Command command;
};

enum class MessageType : std::uint8_t {
  kRequestVote,
  kVoteReply,
  kAppendEntries,
  kAppendReply,
};

struct Message {
  MessageType type = MessageType::kRequestVote;
  NodeIndex from = 0;
  std::uint64_t term = 0;

  // kRequestVote
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
  // kVoteReply
  bool vote_granted = false;
  // kAppendEntries
  std::uint64_t prev_log_index = 0;
  std::uint64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  std::uint64_t leader_commit = 0;
  // kAppendReply
  bool success = false;
  std::uint64_t match_index = 0;
};

/// Delivers messages between nodes; implementations may drop or delay.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(NodeIndex from, NodeIndex to, Message message) = 0;
};

class RaftNode;

/// Transport over the discrete-event engine with loss/delay injection.
class SimTransport : public Transport {
 public:
  SimTransport(sim::Simulator& sim, SimDuration delay = microseconds(50),
               double drop_probability = 0.0, std::uint64_t seed = 17)
      : sim_(sim), delay_(delay), drop_(drop_probability), rng_(seed) {}

  void register_node(NodeIndex index, RaftNode* node);
  void send(NodeIndex from, NodeIndex to, Message message) override;

  /// Cuts both directions between two nodes (network partition).
  void set_link(NodeIndex a, NodeIndex b, bool up);
  std::uint64_t messages_sent() const { return sent_; }

 private:
  sim::Simulator& sim_;
  SimDuration delay_;
  double drop_;
  Rng rng_;
  std::map<NodeIndex, RaftNode*> nodes_;
  std::map<std::pair<NodeIndex, NodeIndex>, bool> link_down_;
  std::uint64_t sent_ = 0;
};

enum class Role : std::uint8_t { kFollower, kCandidate, kLeader };
const char* to_string(Role role);

struct RaftConfig {
  std::uint64_t seed = 99;
};

/// Callback invoked once per committed entry, in log order.
using ApplyFn = std::function<void(std::uint64_t index, const Command&)>;

class RaftNode {
 public:
  RaftNode(sim::Simulator& sim, Transport& transport, NodeIndex index,
           std::uint32_t cluster_size, RaftConfig config = {});

  /// Starts the election timer; call once after all nodes are registered.
  void start();
  /// Crashes the node: stops timers, ignores traffic until restart().
  void stop();
  /// Restarts after stop(): volatile state resets, persistent state
  /// (term, vote, log) survives, as Raft requires.
  void restart();

  /// Leader-only: appends a command. Returns its log index, or an error
  /// if this node is not the leader.
  Result<std::uint64_t> propose(Command command);

  void set_apply_callback(ApplyFn fn) { apply_ = std::move(fn); }

  void deliver(const Message& message);  // called by the transport

  NodeIndex index() const { return index_; }
  Role role() const { return role_; }
  std::uint64_t current_term() const { return current_term_; }
  std::uint64_t commit_index() const { return commit_index_; }
  std::uint64_t last_log_index() const { return log_.size(); }
  bool running() const { return running_; }
  const std::vector<LogEntry>& log() const { return log_; }

 private:
  void become_follower(std::uint64_t term);
  void become_candidate();
  void become_leader();
  void reset_election_timer();
  void send_heartbeats();
  void send_append(NodeIndex peer);
  void advance_commit();
  void apply_committed();
  std::uint64_t last_log_term() const {
    return log_.empty() ? 0 : log_.back().term;
  }

  void on_request_vote(const Message& m);
  void on_vote_reply(const Message& m);
  void on_append_entries(const Message& m);
  void on_append_reply(const Message& m);

  sim::Simulator& sim_;
  Transport& transport_;
  NodeIndex index_;
  std::uint32_t cluster_size_;
  Rng rng_;

  // Persistent state.
  std::uint64_t current_term_ = 0;
  std::optional<NodeIndex> voted_for_;
  std::vector<LogEntry> log_;  // 1-indexed externally: log_[i-1]

  // Volatile state.
  Role role_ = Role::kFollower;
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;
  std::map<NodeIndex, std::uint64_t> next_index_;
  std::map<NodeIndex, std::uint64_t> match_index_;
  std::uint32_t votes_received_ = 0;
  bool running_ = false;

  sim::EventId election_timer_ = sim::kInvalidEvent;
  sim::EventId heartbeat_timer_ = sim::kInvalidEvent;

  ApplyFn apply_;
};

/// Convenience: a cluster of nodes over one SimTransport.
class Cluster {
 public:
  Cluster(sim::Simulator& sim, std::uint32_t size, RaftConfig config = {},
          SimDuration delay = microseconds(50), double drop = 0.0,
          std::uint64_t seed = 17);

  void start();
  RaftNode& node(NodeIndex i) { return *nodes_[i]; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  SimTransport& transport() { return transport_; }

  /// The unique live leader, if one exists.
  RaftNode* leader();

 private:
  SimTransport transport_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
};

}  // namespace lnic::raft
