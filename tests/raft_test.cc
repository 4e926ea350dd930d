// Raft safety and liveness tests: election safety, log replication,
// leader failover, partitions, and a seed-swept property run under
// message loss (the invariants DESIGN.md §6 lists).
#include <gtest/gtest.h>

#include <set>

#include "raft/raft.h"
#include "sim/simulator.h"

namespace lnic::raft {
namespace {

Command put(const std::string& k, const std::string& v) {
  return Command{Command::Op::kPut, k, v};
}

// "k<i>", built by append: GCC 12 at -O3 flags `"k" + std::to_string(i)`
// with a false-positive -Wrestrict.
std::string key(int i) {
  std::string k = "k";
  k += std::to_string(i);
  return k;
}

// Counts live leaders per term across the cluster.
std::map<std::uint64_t, int> leaders_by_term(Cluster& cluster) {
  std::map<std::uint64_t, int> counts;
  for (NodeIndex i = 0; i < cluster.size(); ++i) {
    auto& node = cluster.node(i);
    if (node.running() && node.role() == Role::kLeader) {
      counts[node.current_term()]++;
    }
  }
  return counts;
}

TEST(Raft, ElectsExactlyOneLeader) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  for (const auto& [term, count] : leaders_by_term(cluster)) {
    (void)term;
    EXPECT_LE(count, 1);
  }
}

TEST(Raft, SingleNodeClusterLeadsImmediately) {
  sim::Simulator sim;
  Cluster cluster(sim, 1);
  cluster.start();
  sim.run_until(seconds(1));
  ASSERT_NE(cluster.leader(), nullptr);
  auto result = cluster.leader()->propose(put("k", "v"));
  ASSERT_TRUE(result.ok());
  sim.run_until(seconds(2));
  EXPECT_EQ(cluster.node(0).commit_index(), 1u);
}

TEST(Raft, ReplicatesAndCommitsEntries) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(leader->propose(put(key(i), "v")).ok());
  }
  sim.run_until(seconds(4));
  for (NodeIndex i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).commit_index(), 10u) << "node " << i;
    EXPECT_EQ(cluster.node(i).log().size(), 10u);
  }
}

TEST(Raft, AppliesInOrderExactlyOnce) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  std::vector<std::string> applied;
  cluster.node(0).set_apply_callback(
      [&](std::uint64_t, const Command& c) { applied.push_back(c.key); });
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(leader->propose(put(std::to_string(i), "v")).ok());
  }
  sim.run_until(seconds(4));
  ASSERT_EQ(applied.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(applied[i], std::to_string(i));
}

TEST(Raft, FollowerRejectsProposals) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  for (NodeIndex i = 0; i < cluster.size(); ++i) {
    if (&cluster.node(i) != leader) {
      EXPECT_FALSE(cluster.node(i).propose(put("k", "v")).ok());
    }
  }
}

TEST(Raft, ReelectsAfterLeaderCrash) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* first = cluster.leader();
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->propose(put("before", "crash")).ok());
  sim.run_until(seconds(3));
  const NodeIndex dead = first->index();
  first->stop();
  sim.run_until(seconds(6));
  RaftNode* second = cluster.leader();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second->index(), dead);
  // Committed entry survives the failover (leader completeness).
  ASSERT_TRUE(second->propose(put("after", "crash")).ok());
  sim.run_until(seconds(9));
  EXPECT_GE(second->commit_index(), 2u);
  EXPECT_EQ(second->log()[0].command.key, "before");
}

TEST(Raft, MinorityPartitionCannotCommit) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  const NodeIndex lead = leader->index();
  // Cut the leader plus one follower off from the other three.
  const NodeIndex buddy = (lead + 1) % 5;
  for (NodeIndex i = 0; i < 5; ++i) {
    if (i == lead || i == buddy) continue;
    cluster.transport().set_link(lead, i, false);
    cluster.transport().set_link(buddy, i, false);
  }
  ASSERT_TRUE(leader->propose(put("stuck", "entry")).ok());
  sim.run_until(seconds(5));
  EXPECT_EQ(leader->commit_index(), 0u);  // minority: cannot commit
  // The majority side elects a fresh leader that can commit.
  RaftNode* majority_leader = nullptr;
  for (NodeIndex i = 0; i < 5; ++i) {
    if (i == lead || i == buddy) continue;
    if (cluster.node(i).role() == Role::kLeader) {
      majority_leader = &cluster.node(i);
    }
  }
  ASSERT_NE(majority_leader, nullptr);
  ASSERT_TRUE(majority_leader->propose(put("fresh", "entry")).ok());
  sim.run_until(seconds(8));
  EXPECT_GE(majority_leader->commit_index(), 1u);
}

TEST(Raft, RestartedNodeCatchesUp) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  NodeIndex victim = (leader->index() + 1) % 3;
  cluster.node(victim).stop();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(leader->propose(put(key(i), "v")).ok());
  }
  sim.run_until(seconds(4));
  cluster.node(victim).restart();
  sim.run_until(seconds(8));
  EXPECT_EQ(cluster.node(victim).commit_index(),
            cluster.leader()->commit_index());
}

TEST(Raft, TermsNeverDecrease) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.start();
  std::uint64_t max_term = 0;
  for (int round = 0; round < 20; ++round) {
    sim.run_until(sim.now() + milliseconds(300));
    for (NodeIndex i = 0; i < 3; ++i) {
      EXPECT_GE(cluster.node(i).current_term() + 1, max_term)
          << "node " << i;  // each node's term is monotone overall
      max_term = std::max(max_term, cluster.node(i).current_term());
    }
    // Periodically disturb the cluster.
    if (round == 5) cluster.node(cluster.leader()->index()).stop();
    if (round == 10) {
      for (NodeIndex i = 0; i < 3; ++i) {
        if (!cluster.node(i).running()) cluster.node(i).restart();
      }
    }
  }
}

TEST(Raft, StopIsIdempotentAndQuiet) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  leader->stop();
  leader->stop();  // double stop must be safe
  EXPECT_FALSE(leader->running());
  EXPECT_FALSE(leader->propose(put("k", "v")).ok());
  // A stopped node ignores traffic entirely.
  sim.run_until(seconds(4));
  EXPECT_EQ(leader->role(), Role::kFollower);
}

TEST(Raft, FiveNodeClusterSurvivesTwoCrashes) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  cluster.start();
  sim.run_until(seconds(2));
  ASSERT_NE(cluster.leader(), nullptr);
  // Crash two followers: a majority (3/5) remains, commits continue.
  int crashed = 0;
  for (NodeIndex i = 0; i < 5 && crashed < 2; ++i) {
    if (cluster.node(i).role() != Role::kLeader) {
      cluster.node(i).stop();
      ++crashed;
    }
  }
  sim.run_until(seconds(4));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(leader->propose(put("still", "alive")).ok());
  sim.run_until(seconds(6));
  EXPECT_GE(leader->commit_index(), 1u);
}

TEST(Raft, HealedPartitionConvergesOnOneLog) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  cluster.start();
  sim.run_until(seconds(2));
  RaftNode* old_leader = cluster.leader();
  ASSERT_NE(old_leader, nullptr);
  const NodeIndex lead = old_leader->index();
  // Isolate the leader alone; it may keep accepting (uncommittable)
  // proposals while the majority elects a new leader and commits.
  for (NodeIndex i = 0; i < 5; ++i) {
    if (i != lead) cluster.transport().set_link(lead, i, false);
  }
  (void)old_leader->propose(put("doomed", "entry"));
  sim.run_until(seconds(5));
  RaftNode* new_leader = cluster.leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->index(), lead);
  ASSERT_TRUE(new_leader->propose(put("committed", "entry")).ok());
  sim.run_until(seconds(7));
  // Heal: the old leader must discard its uncommitted entry and adopt
  // the majority's log (log matching + leader completeness).
  for (NodeIndex i = 0; i < 5; ++i) {
    if (i != lead) cluster.transport().set_link(lead, i, true);
  }
  sim.run_until(seconds(10));
  const auto& healed_log = cluster.node(lead).log();
  bool has_doomed = false;
  for (std::uint64_t idx = 1; idx <= cluster.node(lead).commit_index();
       ++idx) {
    if (healed_log[idx - 1].command.key == "doomed") has_doomed = true;
  }
  EXPECT_FALSE(has_doomed);
}

// Property sweep: under 10% message loss and random seeds, the cluster
// still elects a single leader per term and commits entries; logs agree
// on every committed prefix (state-machine safety).
class RaftLossyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RaftLossyTest, SafetyUnderMessageLoss) {
  sim::Simulator sim;
  RaftConfig config;
  config.seed = GetParam();
  Cluster cluster(sim, 5, config, microseconds(200), /*drop=*/0.10,
                  GetParam() * 31 + 1);
  cluster.start();
  // Propose periodically from whoever currently leads.
  int proposed = 0;
  for (int round = 0; round < 40; ++round) {
    sim.run_until(sim.now() + milliseconds(200));
    if (RaftNode* leader = cluster.leader()) {
      if (leader->propose(put(key(round), "v")).ok()) {
        ++proposed;
      }
    }
    for (const auto& [term, count] : leaders_by_term(cluster)) {
      (void)term;
      ASSERT_LE(count, 1) << "two leaders in one term";
    }
  }
  sim.run_until(sim.now() + seconds(3));
  ASSERT_GT(proposed, 0);
  // Committed prefixes agree across all nodes.
  std::uint64_t min_commit = UINT64_MAX;
  for (NodeIndex i = 0; i < 5; ++i) {
    min_commit = std::min(min_commit, cluster.node(i).commit_index());
  }
  EXPECT_GT(min_commit, 0u);
  for (std::uint64_t idx = 1; idx <= min_commit; ++idx) {
    const auto& reference = cluster.node(0).log()[idx - 1];
    for (NodeIndex i = 1; i < 5; ++i) {
      ASSERT_EQ(cluster.node(i).log()[idx - 1].term, reference.term);
      ASSERT_EQ(cluster.node(i).log()[idx - 1].command, reference.command);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftLossyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace lnic::raft
