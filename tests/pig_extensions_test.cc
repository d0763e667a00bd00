// Tests for the PigPaxos extensions: overlapping relay groups (§3.3/4.1),
// multi-layer timeout scaling (footnote 1), relay-liveness suspicion, and
// the end-to-end Paxos Quorum Reads path (§4.3).
#include <gtest/gtest.h>

#include "paxos/quorum_reads.h"
#include "test_util.h"

namespace pig::test {
namespace {

using pigpaxos::GroupingStrategy;
using pigpaxos::PigPaxosOptions;
using pigpaxos::PigPaxosReplica;
using pigpaxos::RelayGroupConfig;
using pigpaxos::RelayGroupPlanner;

TEST(OverlapPlannerTest, GroupsBorrowFromNeighbours) {
  RelayGroupConfig cfg{2, GroupingStrategy::kContiguous, nullptr, 1};
  RelayGroupPlanner planner({1, 2, 3, 4, 5, 6}, cfg);
  ASSERT_EQ(planner.num_groups(), 2u);
  // Base: {1,2,3}, {4,5,6}; overlap 1: group0 += {4}, group1 += {1}.
  EXPECT_EQ(planner.groups()[0], (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(planner.groups()[1], (std::vector<NodeId>{4, 5, 6, 1}));
}

TEST(OverlapPlannerTest, ZeroOverlapStaysDisjoint) {
  RelayGroupConfig cfg{2, GroupingStrategy::kContiguous, nullptr, 0};
  RelayGroupPlanner planner({1, 2, 3, 4}, cfg);
  std::set<NodeId> seen;
  size_t total = 0;
  for (const auto& g : planner.groups()) {
    seen.insert(g.begin(), g.end());
    total += g.size();
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(OverlapPlannerTest, SingleGroupIgnoresOverlap) {
  RelayGroupConfig cfg{1, GroupingStrategy::kContiguous, nullptr, 2};
  RelayGroupPlanner planner({1, 2, 3}, cfg);
  EXPECT_EQ(planner.groups()[0].size(), 3u);
}

TEST(PigExtensionsTest, OverlapKeepsCommittingUnderLoss) {
  sim::ClusterOptions copt;
  copt.seed = 77;
  copt.network.drop_probability = 0.08;
  sim::Cluster cluster(copt);
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.group_overlap = 2;
  opt.relay_timeout = 20 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PigSpec(9, opt));
  cluster.Start();
  cluster.RunFor(300 * kMillisecond);
  // The client links are lossy too: retry each command while current
  // (dedup makes that safe) and judge progress by replica state.
  for (int i = 0; i < 20; ++i) {
    uint64_t seq = prober->Put(0, "ov" + std::to_string(i), "v");
    Command c = Command::Put("ov" + std::to_string(i), "v",
                             sim::Cluster::MakeClientId(0), seq);
    cluster.RunFor(75 * kMillisecond);
    prober->Resend(0, c);
    cluster.RunFor(75 * kMillisecond);
  }
  cluster.RunFor(1 * kSecond);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(PaxosAt(cluster, 0)->store().Get("ov" + std::to_string(i)),
              "v")
        << "op " << i;
  }
  EXPECT_GE(prober->OkCount(), 15u);
  EXPECT_EQ(CheckLogConsistency(cluster, 9), "");
}

TEST(PigExtensionsTest, OverlapDuplicateVotesAreIdempotent) {
  // With heavy overlap every follower sits in both groups; each round
  // produces duplicate P2bs at the leader, which must count once.
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.group_overlap = 2;  // groups of 2+2 borrow 2 => full overlap
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    uint64_t seq = prober->Put(0, "dup" + std::to_string(i), "v");
    cluster.RunFor(50 * kMillisecond);
    ASSERT_NE(prober->FindReply(seq), nullptr) << "op " << i;
  }
  // Exactly one commit per proposal despite duplicated votes.
  EXPECT_EQ(PaxosAt(cluster, 0)->metrics().commits,
            PaxosAt(cluster, 0)->metrics().proposals);
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PigExtensionsTest, SuspicionAvoidsDeadRelays) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_timeout = 10 * kMillisecond;
  opt.suspicion_duration = 10 * kSecond;
  Prober* prober = MakeCluster(cluster, PigSpec(9, opt));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  cluster.Crash(2);  // follower in group 1

  // Drive enough rounds that node 2 eventually gets picked as relay and
  // then suspected.
  for (int i = 0; i < 40; ++i) {
    prober->Put(0, "s" + std::to_string(i), "v");
    cluster.RunFor(30 * kMillisecond);
  }
  EXPECT_GT(PigAt(cluster, 0)->relay_metrics().relays_suspected, 0u);

  // Once suspected, rounds stop stalling on the dead relay: a fresh
  // batch of operations all commit promptly (well under the leader
  // propose-retry timeout).
  size_t fast = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t seq = prober->Put(0, "fast" + std::to_string(i), "v");
    cluster.RunFor(60 * kMillisecond);
    if (prober->FindReply(seq) != nullptr) fast++;
  }
  EXPECT_EQ(fast, 10u);
}

TEST(PigExtensionsTest, SuspicionClearsAfterRecovery) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_timeout = 10 * kMillisecond;
  opt.suspicion_duration = 500 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  cluster.Crash(4);
  for (int i = 0; i < 20; ++i) {
    prober->Put(0, "x", "v");
    cluster.RunFor(25 * kMillisecond);
  }
  cluster.Recover(4);
  cluster.RunFor(2 * kSecond);
  // The recovered node participates again: drive traffic and check it
  // catches up and serves as relay eventually.
  for (int i = 0; i < 40; ++i) {
    prober->Put(0, "y" + std::to_string(i), "v");
    cluster.RunFor(25 * kMillisecond);
  }
  EXPECT_EQ(PigAt(cluster, 4)->store().Get("y39"), "v");
}

TEST(PigExtensionsTest, ThreeLayerTreeCommits) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_layers = 3;
  opt.sub_groups = 2;
  Prober* prober = MakeCluster(cluster, PigSpec(25, opt));
  cluster.Start();
  cluster.RunFor(300 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    uint64_t seq = prober->Put(0, "deep" + std::to_string(i), "v");
    cluster.RunFor(100 * kMillisecond);
    EXPECT_NE(prober->FindReply(seq), nullptr) << "op " << i;
  }
  EXPECT_EQ(CheckLogConsistency(cluster, 25), "");
}

// ---------------------------------------------------------------------------
// End-to-end Paxos Quorum Reads (§4.3)

/// Minimal PQR client actor for tests.
class PqrProber : public Actor {
 public:
  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (msg->type() != MsgType::kQuorumReadReply) return;
    const auto& reply = static_cast<const paxos::QuorumReadReply&>(*msg);
    replies.push_back(reply);
    if (coordinator && coordinator->OnReply(reply)) {
      value = coordinator->value();
      done = true;
    }
    if (coordinator && coordinator->needs_rinse()) rinsed = true;
  }

  void StartRead(const std::string& key, size_t n, uint64_t read_id) {
    coordinator =
        std::make_unique<paxos::QuorumReadCoordinator>(n, read_id);
    done = false;
    rinsed = false;
    auto req = std::make_shared<paxos::QuorumReadRequest>();
    req->key = key;
    req->read_id = read_id;
    for (NodeId i = 1; i <= n / 2 + 1; ++i) env_->Send(i, req);
  }

  std::unique_ptr<paxos::QuorumReadCoordinator> coordinator;
  std::vector<paxos::QuorumReadReply> replies;
  std::string value;
  bool done = false;
  bool rinsed = false;
};

TEST(QuorumReadIntegrationTest, ReadsCommittedValueFromFollowers) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  pigpaxos::PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  AddReplicas(cluster, PigSpec(5, opt));
  auto write_prober = std::make_unique<Prober>();
  Prober* writer = write_prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(0), std::move(write_prober));
  auto pqr_prober = std::make_unique<PqrProber>();
  PqrProber* reader = pqr_prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(pqr_prober));

  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  uint64_t seq = writer->Put(0, "pqr", "committed-value");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(writer->FindReply(seq), nullptr);

  reader->StartRead("pqr", 5, 1);
  cluster.RunFor(100 * kMillisecond);
  ASSERT_TRUE(reader->done);
  EXPECT_EQ(reader->value, "committed-value");
  EXPECT_FALSE(reader->rinsed);
}

TEST(QuorumReadIntegrationTest, PendingWriteSetsRinseFlag) {
  // Partition the leader away after it accepts a write locally? Simpler:
  // read while a write is in flight by pausing commits — cut the leader
  // off from followers after sending P2a is racy; instead use a cluster
  // where the leader accepted but followers are partitioned from each
  // other so execution stalls at followers... The deterministic way:
  // partition a follower so it receives P2a (accept watermark rises) but
  // never the commit. Simplest deterministic variant: isolate the leader
  // with one follower so the write stays uncommitted at that follower.
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.election_timeout_min = 20 * kSecond;  // freeze leadership changes
  opt.election_timeout_max = 30 * kSecond;
  AddReplicas(cluster, PaxosSpec(5, opt));
  auto write_prober = std::make_unique<Prober>();
  Prober* writer = write_prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(0), std::move(write_prober));
  auto pqr_prober = std::make_unique<PqrProber>();
  PqrProber* reader = pqr_prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(pqr_prober));

  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  // Baseline committed value.
  uint64_t s1 = writer->Put(0, "k", "old");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(writer->FindReply(s1), nullptr);

  // Now cut replies to the leader: followers 1..4 can receive from the
  // leader but their responses are dropped, so the next write is
  // accepted everywhere but committed nowhere.
  for (NodeId i = 1; i < 5; ++i) {
    cluster.network().SetLinkDown(i, 0, true);
  }
  writer->Put(0, "k", "new-uncommitted");
  cluster.RunFor(100 * kMillisecond);

  reader->StartRead("k", 5, 2);
  cluster.RunFor(100 * kMillisecond);
  // Followers report the accepted-but-unexecuted write: rinse required,
  // read must NOT return yet (linearizability guard).
  EXPECT_FALSE(reader->done);
  EXPECT_TRUE(reader->rinsed);

  // Heal; the leader's retry commits the write; a fresh read sees it.
  for (NodeId i = 1; i < 5; ++i) {
    cluster.network().SetLinkDown(i, 0, false);
  }
  cluster.RunFor(1 * kSecond);
  reader->StartRead("k", 5, 3);
  cluster.RunFor(100 * kMillisecond);
  ASSERT_TRUE(reader->done);
  EXPECT_EQ(reader->value, "new-uncommitted");
}

}  // namespace
}  // namespace pig::test
