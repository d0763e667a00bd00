// Multi-Paxos integration tests on the simulator: commit flow, redirects,
// dedup, leader failover, catch-up under message loss, compaction.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pig::test {
namespace {

TEST(PaxosTest, BootstrapElectsLeaderZero) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  EXPECT_EQ(FindLeader(cluster, 5), 0u);
  EXPECT_EQ(PaxosAt(cluster, 0)->metrics().elections_won, 1u);
}

TEST(PaxosTest, CommitsAndRepliesToClient) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  uint64_t s1 = prober->Put(0, "apple", "red");
  cluster.RunFor(100 * kMillisecond);
  const auto* r = prober->FindReply(s1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->code, StatusCode::kOk);

  uint64_t s2 = prober->Get(0, "apple");
  cluster.RunFor(100 * kMillisecond);
  r = prober->FindReply(s2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "red");
}

TEST(PaxosTest, AllReplicasApplyCommands) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 20; ++i) {
    prober->Put(0, "k" + std::to_string(i), "v" + std::to_string(i));
    cluster.RunFor(10 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);  // heartbeats spread commit index
  for (NodeId n = 0; n < 5; ++n) {
    const auto* rep = PaxosAt(cluster, n);
    EXPECT_EQ(rep->store().Get("k19"), "v19") << "replica " << n;
    EXPECT_GE(rep->metrics().executions, 20u) << "replica " << n;
  }
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PaxosTest, NonLeaderRedirects) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  prober->Put(3, "x", "y");  // node 3 is a follower
  cluster.RunFor(50 * kMillisecond);
  ASSERT_EQ(prober->replies.size(), 1u);
  EXPECT_EQ(prober->replies[0].code, StatusCode::kNotLeader);
  EXPECT_EQ(prober->replies[0].leader_hint, 0u);
  EXPECT_GE(PaxosAt(cluster, 3)->metrics().redirects, 1u);
}

TEST(PaxosTest, DuplicateRequestDeduplicated) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  uint64_t seq = prober->Put(0, "dup", "v1");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(seq), nullptr);

  // Retry of the same (client, seq) must not commit a second slot.
  const auto before = PaxosAt(cluster, 0)->metrics().proposals;
  Command cmd = Command::Put("dup", "v1", sim::Cluster::MakeClientId(0), seq);
  prober->Resend(0, cmd);
  cluster.RunFor(100 * kMillisecond);
  EXPECT_EQ(PaxosAt(cluster, 0)->metrics().proposals, before);
  // Still re-replies from the cache.
  size_t ok = 0;
  for (auto& r : prober->replies) ok += (r.seq == seq);
  EXPECT_EQ(ok, 2u);
}

TEST(PaxosTest, LeaderFailoverElectsNewLeaderAndPreservesData) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  uint64_t s1 = prober->Put(0, "stable", "value");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(s1), nullptr);

  cluster.Crash(0);
  cluster.RunFor(1 * kSecond);  // election timeout + phase-1
  NodeId leader = FindLeader(cluster, 5);
  ASSERT_NE(leader, kInvalidNode);
  ASSERT_NE(leader, 0u);

  // New leader still serves the old data and accepts new commands.
  uint64_t s2 = prober->Get(leader, "stable");
  cluster.RunFor(200 * kMillisecond);
  const auto* r = prober->FindReply(s2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "value");

  uint64_t s3 = prober->Put(leader, "after", "failover");
  cluster.RunFor(200 * kMillisecond);
  EXPECT_NE(prober->FindReply(s3), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PaxosTest, OldLeaderRejoinsAsFollower) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  prober->Put(0, "a", "1");
  cluster.RunFor(100 * kMillisecond);
  cluster.Crash(0);
  cluster.RunFor(1 * kSecond);
  NodeId leader = FindLeader(cluster, 5);
  ASSERT_NE(leader, kInvalidNode);

  uint64_t s2 = prober->Put(leader, "b", "2");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(prober->FindReply(s2), nullptr);

  cluster.Recover(0);
  cluster.RunFor(2 * kSecond);
  // Node 0 must not have stolen leadership with a stale ballot, and must
  // have caught up on "b".
  EXPECT_EQ(FindLeader(cluster, 5), leader);
  EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("b"), "2");
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PaxosTest, ProgressUnderMessageLoss) {
  sim::ClusterOptions opt;
  opt.seed = 3;
  opt.network.drop_probability = 0.05;  // 5% loss
  sim::Cluster cluster(opt);
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  // The client link is lossy too, so retry each command while it is the
  // client's current request (replica-side dedup makes retries safe) and
  // judge progress by replica state rather than reply delivery.
  for (int i = 0; i < 30; ++i) {
    uint64_t seq = prober->Put(0, "lossy" + std::to_string(i), "v");
    Command c = Command::Put("lossy" + std::to_string(i), "v",
                             sim::Cluster::MakeClientId(0), seq);
    cluster.RunFor(15 * kMillisecond);
    prober->Resend(0, c);
    cluster.RunFor(15 * kMillisecond);
    prober->Resend(0, c);
    cluster.RunFor(15 * kMillisecond);
  }
  cluster.RunFor(2 * kSecond);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("lossy" + std::to_string(i)),
              "v");
  }
  EXPECT_GE(prober->OkCount(), 25u);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PaxosTest, FollowerCatchesUpViaLogSync) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(3));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  // Cut node 2 off, commit through 0+1, then heal.
  cluster.network().SetPartitionGroup(2, 1);
  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "p" + std::to_string(i), "v");
    cluster.RunFor(20 * kMillisecond);
  }
  EXPECT_EQ(PaxosAt(cluster, 2)->store().Get("p9"), "");
  cluster.network().HealPartitions();
  cluster.RunFor(2 * kSecond);
  EXPECT_EQ(PaxosAt(cluster, 2)->store().Get("p9"), "v");
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

TEST(PaxosTest, MinorityPartitionCannotCommit) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  // Leader (0) isolated with node 1: a minority.
  cluster.network().SetPartitionGroup(0, 1);
  cluster.network().SetPartitionGroup(1, 1);
  uint64_t seq = prober->Put(0, "minority", "write");
  cluster.RunFor(500 * kMillisecond);
  EXPECT_EQ(prober->FindReply(seq), nullptr);
  // Majority side elects a new leader and can commit.
  cluster.RunFor(1 * kSecond);
  NodeId leader = kInvalidNode;
  for (NodeId n = 2; n < 5; ++n) {
    if (PaxosAt(cluster, n)->IsLeader()) leader = n;
  }
  ASSERT_NE(leader, kInvalidNode);
  uint64_t s2 = prober->Put(leader, "majority", "write");
  cluster.RunFor(300 * kMillisecond);
  EXPECT_NE(prober->FindReply(s2), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PaxosTest, SingleNodeClusterCommitsAlone) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(1));
  cluster.Start();
  cluster.RunFor(50 * kMillisecond);
  uint64_t seq = prober->Put(0, "solo", "run");
  cluster.RunFor(50 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
}

TEST(PaxosTest, ThreeNodeClusterSurvivesOneCrash) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(3));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  cluster.Crash(2);
  uint64_t seq = prober->Put(0, "f1", "tolerated");
  cluster.RunFor(200 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
}

TEST(PaxosTest, FlexibleQuorumCommitsWithSmallQ2) {
  paxos::PaxosOptions opt;
  opt.quorum = std::make_shared<FlexibleQuorum>(5, 4, 2);
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  // With q2=2 the leader needs only one follower ack; crash three
  // followers (leaving leader + one) and commits must still succeed.
  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  uint64_t seq = prober->Put(0, "flex", "q2");
  cluster.RunFor(300 * kMillisecond);
  EXPECT_NE(prober->FindReply(seq), nullptr);
}

TEST(PaxosTest, CompactionBoundsMemory) {
  paxos::PaxosOptions opt;
  opt.compaction_window = 16;
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(3, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 200; ++i) {
    prober->Put(0, "c" + std::to_string(i % 5), "v");
    cluster.RunFor(5 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);
  EXPECT_LE(PaxosAt(cluster, 0)->log().size_in_memory(), 64u);
  EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("c4"), "v");
}

TEST(PaxosTest, MetricsCountCommits) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, PaxosSpec(3));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "m", "v");
    cluster.RunFor(20 * kMillisecond);
  }
  const auto& m = PaxosAt(cluster, 0)->metrics();
  EXPECT_EQ(m.proposals, 10u);
  EXPECT_GE(m.commits, 10u);
}

}  // namespace
}  // namespace pig::test
