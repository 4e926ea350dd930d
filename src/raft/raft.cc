#include "raft/raft.h"

#include <algorithm>
#include <cassert>

namespace lnic::raft {

namespace {
// Election timeouts drawn uniformly from [min, max), as in the Raft
// paper's 150-300 ms; leaders heartbeat well inside the minimum.
constexpr SimDuration kElectionTimeoutMin = milliseconds(150);
constexpr SimDuration kElectionTimeoutMax = milliseconds(300);
constexpr SimDuration kHeartbeatInterval = milliseconds(50);
}  // namespace

const char* to_string(Role role) {
  switch (role) {
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
    case Role::kLeader: return "leader";
  }
  return "?";
}

// ---------------------------------------------------------------- transport

void SimTransport::register_node(NodeIndex index, RaftNode* node) {
  nodes_[index] = node;
}

void SimTransport::set_link(NodeIndex a, NodeIndex b, bool up) {
  link_down_[{std::min(a, b), std::max(a, b)}] = !up;
}

void SimTransport::send(NodeIndex from, NodeIndex to, Message message) {
  ++sent_;
  const auto key = std::make_pair(std::min(from, to), std::max(from, to));
  const auto it = link_down_.find(key);
  if (it != link_down_.end() && it->second) return;  // partitioned
  if (drop_ > 0.0 && rng_.next_bool(drop_)) return;
  // Jitter avoids pathological lockstep elections under identical delays.
  const SimDuration jitter =
      static_cast<SimDuration>(rng_.next_below(static_cast<std::uint64_t>(
          std::max<SimDuration>(delay_ / 4, 1))));
  sim_.schedule(delay_ + jitter, [this, to, message = std::move(message)]() {
    const auto node_it = nodes_.find(to);
    if (node_it != nodes_.end()) node_it->second->deliver(message);
  });
}

// --------------------------------------------------------------------- node

RaftNode::RaftNode(sim::Simulator& sim, Transport& transport, NodeIndex index,
                   std::uint32_t cluster_size, RaftConfig config)
    : sim_(sim),
      transport_(transport),
      index_(index),
      cluster_size_(cluster_size),
      rng_(config.seed + index * 7919) {}

void RaftNode::start() {
  running_ = true;
  reset_election_timer();
}

void RaftNode::stop() {
  running_ = false;
  if (election_timer_ != sim::kInvalidEvent) sim_.cancel(election_timer_);
  if (heartbeat_timer_ != sim::kInvalidEvent) sim_.cancel(heartbeat_timer_);
  election_timer_ = sim::kInvalidEvent;
  heartbeat_timer_ = sim::kInvalidEvent;
  role_ = Role::kFollower;
}

void RaftNode::restart() {
  // Volatile state resets; persistent (term, vote, log) survives.
  commit_index_ = 0;
  last_applied_ = 0;
  next_index_.clear();
  match_index_.clear();
  votes_received_ = 0;
  start();
}

void RaftNode::reset_election_timer() {
  if (election_timer_ != sim::kInvalidEvent) sim_.cancel(election_timer_);
  constexpr auto kSpan =
      static_cast<std::uint64_t>(kElectionTimeoutMax - kElectionTimeoutMin);
  static_assert(kSpan > 0);
  const SimDuration timeout =
      kElectionTimeoutMin + static_cast<SimDuration>(rng_.next_below(kSpan));
  election_timer_ = sim_.schedule(timeout, [this] {
    election_timer_ = sim::kInvalidEvent;
    if (running_ && role_ != Role::kLeader) become_candidate();
  });
}

void RaftNode::become_follower(std::uint64_t term) {
  current_term_ = term;
  role_ = Role::kFollower;
  voted_for_.reset();
  if (heartbeat_timer_ != sim::kInvalidEvent) {
    sim_.cancel(heartbeat_timer_);
    heartbeat_timer_ = sim::kInvalidEvent;
  }
  reset_election_timer();
}

void RaftNode::become_candidate() {
  ++current_term_;
  role_ = Role::kCandidate;
  voted_for_ = index_;
  votes_received_ = 1;  // own vote
  reset_election_timer();
  Message m;
  m.type = MessageType::kRequestVote;
  m.from = index_;
  m.term = current_term_;
  m.last_log_index = last_log_index();
  m.last_log_term = last_log_term();
  for (NodeIndex peer = 0; peer < cluster_size_; ++peer) {
    if (peer != index_) transport_.send(index_, peer, m);
  }
  // Single-node cluster: immediate leadership.
  if (votes_received_ * 2 > cluster_size_) become_leader();
}

void RaftNode::become_leader() {
  role_ = Role::kLeader;
  for (NodeIndex peer = 0; peer < cluster_size_; ++peer) {
    if (peer == index_) continue;
    next_index_[peer] = last_log_index() + 1;
    match_index_[peer] = 0;
  }
  if (election_timer_ != sim::kInvalidEvent) {
    sim_.cancel(election_timer_);
    election_timer_ = sim::kInvalidEvent;
  }
  send_heartbeats();
}

void RaftNode::send_heartbeats() {
  if (!running_ || role_ != Role::kLeader) return;
  for (NodeIndex peer = 0; peer < cluster_size_; ++peer) {
    if (peer != index_) send_append(peer);
  }
  heartbeat_timer_ = sim_.schedule(kHeartbeatInterval, [this] {
    heartbeat_timer_ = sim::kInvalidEvent;
    send_heartbeats();
  });
}

void RaftNode::send_append(NodeIndex peer) {
  Message m;
  m.type = MessageType::kAppendEntries;
  m.from = index_;
  m.term = current_term_;
  const std::uint64_t next = next_index_[peer];
  m.prev_log_index = next - 1;
  m.prev_log_term =
      m.prev_log_index == 0 ? 0 : log_[m.prev_log_index - 1].term;
  for (std::uint64_t i = next; i <= log_.size(); ++i) {
    m.entries.push_back(log_[i - 1]);
  }
  m.leader_commit = commit_index_;
  transport_.send(index_, peer, m);
}

Result<std::uint64_t> RaftNode::propose(Command command) {
  if (!running_ || role_ != Role::kLeader) {
    return make_error("raft: not the leader");
  }
  log_.push_back(LogEntry{current_term_, std::move(command)});
  match_index_[index_] = log_.size();
  for (NodeIndex peer = 0; peer < cluster_size_; ++peer) {
    if (peer != index_) send_append(peer);
  }
  if (cluster_size_ == 1) {
    advance_commit();
  }
  return log_.size();
}

void RaftNode::deliver(const Message& m) {
  if (!running_) return;
  if (m.term > current_term_) become_follower(m.term);
  switch (m.type) {
    case MessageType::kRequestVote: on_request_vote(m); break;
    case MessageType::kVoteReply: on_vote_reply(m); break;
    case MessageType::kAppendEntries: on_append_entries(m); break;
    case MessageType::kAppendReply: on_append_reply(m); break;
  }
}

void RaftNode::on_request_vote(const Message& m) {
  Message reply;
  reply.type = MessageType::kVoteReply;
  reply.from = index_;
  reply.term = current_term_;
  reply.vote_granted = false;
  if (m.term >= current_term_ &&
      (!voted_for_.has_value() || *voted_for_ == m.from)) {
    // Election restriction (§5.4.1 of the Raft paper): candidate's log
    // must be at least as up to date.
    const bool log_ok =
        m.last_log_term > last_log_term() ||
        (m.last_log_term == last_log_term() &&
         m.last_log_index >= last_log_index());
    if (log_ok) {
      voted_for_ = m.from;
      reply.vote_granted = true;
      reset_election_timer();
    }
  }
  transport_.send(index_, m.from, reply);
}

void RaftNode::on_vote_reply(const Message& m) {
  if (role_ != Role::kCandidate || m.term != current_term_) return;
  if (!m.vote_granted) return;
  ++votes_received_;
  if (votes_received_ * 2 > cluster_size_) become_leader();
}

void RaftNode::on_append_entries(const Message& m) {
  Message reply;
  reply.type = MessageType::kAppendReply;
  reply.from = index_;
  reply.term = current_term_;
  reply.success = false;

  if (m.term < current_term_) {
    transport_.send(index_, m.from, reply);
    return;
  }
  // Valid leader for this term.
  if (role_ != Role::kFollower) become_follower(m.term);
  reset_election_timer();

  // Log-matching check.
  if (m.prev_log_index > log_.size() ||
      (m.prev_log_index > 0 &&
       log_[m.prev_log_index - 1].term != m.prev_log_term)) {
    transport_.send(index_, m.from, reply);
    return;
  }
  // Append, truncating conflicts.
  std::uint64_t idx = m.prev_log_index;
  for (const auto& entry : m.entries) {
    ++idx;
    if (idx <= log_.size()) {
      if (log_[idx - 1].term != entry.term) {
        log_.resize(idx - 1);
        log_.push_back(entry);
      }
    } else {
      log_.push_back(entry);
    }
  }
  if (m.leader_commit > commit_index_) {
    commit_index_ = std::min<std::uint64_t>(m.leader_commit, log_.size());
    apply_committed();
  }
  reply.success = true;
  reply.match_index = m.prev_log_index + m.entries.size();
  transport_.send(index_, m.from, reply);
}

void RaftNode::on_append_reply(const Message& m) {
  if (role_ != Role::kLeader || m.term != current_term_) return;
  if (m.success) {
    match_index_[m.from] = std::max(match_index_[m.from], m.match_index);
    next_index_[m.from] = match_index_[m.from] + 1;
    advance_commit();
  } else {
    // Back off and retry.
    if (next_index_[m.from] > 1) --next_index_[m.from];
    send_append(m.from);
  }
}

void RaftNode::advance_commit() {
  // Find the highest N replicated on a majority with log[N].term == now.
  for (std::uint64_t n = log_.size(); n > commit_index_; --n) {
    if (log_[n - 1].term != current_term_) break;  // only current-term entries
    std::uint32_t count = 1;  // self
    for (const auto& [peer, match] : match_index_) {
      if (peer != index_ && match >= n) ++count;
    }
    if (count * 2 > cluster_size_) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (apply_) apply_(last_applied_, log_[last_applied_ - 1].command);
  }
}

// ------------------------------------------------------------------ cluster

Cluster::Cluster(sim::Simulator& sim, std::uint32_t size, RaftConfig config,
                 SimDuration delay, double drop, std::uint64_t seed)
    : transport_(sim, delay, drop, seed) {
  for (NodeIndex i = 0; i < size; ++i) {
    nodes_.push_back(std::make_unique<RaftNode>(sim, transport_, i, size,
                                                config));
    transport_.register_node(i, nodes_.back().get());
  }
}

void Cluster::start() {
  for (auto& node : nodes_) node->start();
}

RaftNode* Cluster::leader() {
  RaftNode* found = nullptr;
  std::uint64_t best_term = 0;
  for (auto& node : nodes_) {
    if (node->running() && node->role() == Role::kLeader &&
        node->current_term() > best_term) {
      found = node.get();
      best_term = node->current_term();
    }
  }
  return found;
}

}  // namespace lnic::raft
