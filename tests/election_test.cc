// Leader-election edge cases: dueling candidates, candidate retry with
// rising ballots, stale-leader demotion via heartbeat nacks, elections
// through relay trees, and ballot monotonicity invariants.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pig::test {
namespace {

TEST(ElectionTest, DuelingCandidatesConvergeToOneLeader) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.num_replicas = 5;
  opt.bootstrap_leader = kInvalidNode;  // nobody bootstraps
  // Narrow the timeout window to force simultaneous candidacies.
  opt.election_timeout_min = 100 * kMillisecond;
  opt.election_timeout_max = 110 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();
  cluster.RunFor(5 * kSecond);

  size_t leaders = 0;
  NodeId leader = kInvalidNode;
  for (NodeId i = 0; i < 5; ++i) {
    if (PaxosAt(cluster, i)->IsLeader()) {
      leaders++;
      leader = i;
    }
  }
  ASSERT_EQ(leaders, 1u);
  uint64_t seq = prober->Put(leader, "duel", "resolved");
  cluster.RunFor(200 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(ElectionTest, CandidateRetriesWithHigherBallot) {
  // A candidate that cannot reach quorum (everyone else partitioned away)
  // keeps retrying with increasing ballots instead of wedging.
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.num_replicas = 5;
  MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  // Isolate everyone from node 1, then force it to campaign.
  for (NodeId i = 0; i < 5; ++i) {
    if (i != 1) cluster.network().SetPartitionGroup(i, 1);
  }
  auto* candidate =
      static_cast<paxos::PaxosReplica*>(cluster.actor(1));
  Ballot before = candidate->promised();
  candidate->TriggerElection();
  cluster.RunFor(2 * kSecond);
  EXPECT_FALSE(candidate->IsLeader());
  EXPECT_GT(candidate->promised().counter, before.counter + 1)
      << "candidate should have retried with rising ballots";
  EXPECT_GE(candidate->metrics().elections_started, 2u);

  // Heal: the cluster has a leader on the majority side; node 1 returns
  // to follower and catches up.
  cluster.network().HealPartitions();
  cluster.RunFor(2 * kSecond);
  size_t leaders = 0;
  for (NodeId i = 0; i < 5; ++i) leaders += PaxosAt(cluster, i)->IsLeader();
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(ElectionTest, StaleLeaderDeposedByHeartbeatNack) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.num_replicas = 5;
  Prober* prober = MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  ASSERT_TRUE(PaxosAt(cluster, 0)->IsLeader());

  // Isolate the leader; the rest elect node X; then heal. The old leader
  // keeps heartbeating with a stale ballot and must step down on the
  // first nack, without disturbing the new leader.
  cluster.network().SetPartitionGroup(0, 1);
  cluster.RunFor(1500 * kMillisecond);
  NodeId new_leader = kInvalidNode;
  for (NodeId i = 1; i < 5; ++i) {
    if (PaxosAt(cluster, i)->IsLeader()) new_leader = i;
  }
  ASSERT_NE(new_leader, kInvalidNode);
  EXPECT_TRUE(PaxosAt(cluster, 0)->IsLeader());  // still thinks so

  cluster.network().HealPartitions();
  cluster.RunFor(500 * kMillisecond);
  EXPECT_FALSE(PaxosAt(cluster, 0)->IsLeader());
  EXPECT_TRUE(PaxosAt(cluster, new_leader)->IsLeader());

  uint64_t seq = prober->Put(new_leader, "after-heal", "ok");
  cluster.RunFor(300 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(ElectionTest, PromisedBallotNeverDecreases) {
  sim::ClusterOptions copt;
  copt.seed = 5;
  copt.network.drop_probability = 0.03;
  sim::Cluster cluster(copt);
  paxos::PaxosOptions opt;
  opt.num_replicas = 5;
  MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();

  Ballot last[5];
  for (int step = 0; step < 50; ++step) {
    cluster.RunFor(100 * kMillisecond);
    for (NodeId i = 0; i < 5; ++i) {
      const Ballot& now = PaxosAt(cluster, i)->promised();
      EXPECT_GE(now, last[i]) << "replica " << i << " ballot regressed";
      last[i] = now;
    }
    if (step % 10 == 3) {
      NodeId victim = static_cast<NodeId>(step / 10 % 5);
      cluster.Crash(victim);
    }
    if (step % 10 == 7) {
      for (NodeId i = 0; i < 5; ++i) {
        if (!cluster.IsAlive(i)) cluster.Recover(i);
      }
    }
  }
}

TEST(ElectionTest, PigElectionThroughRelayTree) {
  // Phase-1 also flows through relays (paper Fig. 4): with the bootstrap
  // leader disabled, a PigPaxos cluster still elects via relayed P1a/P1b.
  sim::Cluster cluster{sim::ClusterOptions{}};
  pigpaxos::PigPaxosOptions opt;
  opt.paxos.num_replicas = 9;
  opt.paxos.bootstrap_leader = kInvalidNode;
  opt.num_relay_groups = 3;
  Prober* prober = MakeCluster(cluster, PigSpec(9, opt));
  cluster.Start();
  cluster.RunFor(3 * kSecond);
  NodeId leader = FindLeader(cluster, 9);
  ASSERT_NE(leader, kInvalidNode);
  uint64_t seq = prober->Put(leader, "relay-elected", "yes");
  cluster.RunFor(300 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
}

TEST(ElectionTest, NewLeaderAdoptsInFlightCommands) {
  // Commands accepted by a majority but not yet learned by the client
  // must survive the leader change (phase-1 value adoption).
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.num_replicas = 5;
  Prober* prober = MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  // Cut the fan-in to the leader so accepts land on followers but the
  // leader never learns/commits, then crash it.
  for (NodeId i = 1; i < 5; ++i) cluster.network().SetLinkDown(i, 0, true);
  prober->Put(0, "inflight", "must-survive");
  cluster.RunFor(100 * kMillisecond);
  cluster.Crash(0);
  cluster.RunFor(2 * kSecond);

  NodeId leader = FindLeader(cluster, 5);
  ASSERT_NE(leader, kInvalidNode);
  // The new leader must have adopted and committed the in-flight value.
  uint64_t seq = prober->Get(leader, "inflight");
  cluster.RunFor(300 * kMillisecond);
  const auto* r = prober->FindReply(seq);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "must-survive");
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

}  // namespace
}  // namespace pig::test
