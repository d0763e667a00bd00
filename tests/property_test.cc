// Randomized property tests (parameterized over seeds): the consensus
// safety invariants must hold under message loss, partitions, and crash/
// recovery churn, for both Paxos and PigPaxos; EPaxos replicas must
// converge to identical stores under conflicting multi-leader traffic.
#include <gtest/gtest.h>

#include "client/closed_loop_client.h"
#include "test_util.h"

namespace pig::test {
namespace {

struct ChaosParams {
  uint64_t seed;
  double drop_probability;
  bool use_pig;
};

std::string ChaosName(const ::testing::TestParamInfo<ChaosParams>& info) {
  return (info.param.use_pig ? std::string("Pig") : std::string("Paxos")) +
         "Seed" + std::to_string(info.param.seed) + "Drop" +
         std::to_string(static_cast<int>(info.param.drop_probability * 100));
}

class ConsensusChaosTest : public ::testing::TestWithParam<ChaosParams> {};

/// Runs a 5-node cluster with closed-loop clients while randomly crashing
/// and recovering minority subsets of nodes; then heals everything and
/// checks the safety and convergence invariants.
TEST_P(ConsensusChaosTest, SafetyUnderChaos) {
  const ChaosParams& p = GetParam();
  constexpr size_t kNodes = 5;

  sim::ClusterOptions copt;
  copt.seed = p.seed;
  copt.network.drop_probability = p.drop_probability;
  sim::Cluster cluster(copt);

  if (p.use_pig) {
    pigpaxos::PigPaxosOptions opt;
    opt.num_relay_groups = 2;
    opt.relay_timeout = 20 * kMillisecond;
    AddReplicas(cluster, PigSpec(kNodes, opt));
  } else {
    paxos::PaxosOptions opt;
    AddReplicas(cluster, PaxosSpec(kNodes, opt));
  }

  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 30 * kSecond);
  for (uint32_t i = 0; i < 4; ++i) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = kNodes;
    ccfg.request_timeout = 300 * kMillisecond;
    ccfg.workload.num_keys = 20;
    cluster.AddClient(
        sim::Cluster::MakeClientId(i),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();

  // Chaos phase: crash a random node, run, recover it, run — repeatedly.
  // At most one node is down at a time, so a majority always exists.
  Rng chaos(p.seed * 7919 + 13);
  for (int round = 0; round < 8; ++round) {
    NodeId victim = static_cast<NodeId>(chaos.NextBounded(kNodes));
    cluster.Crash(victim);
    cluster.RunFor(400 * kMillisecond);
    cluster.Recover(victim);
    cluster.RunFor(400 * kMillisecond);
  }

  // Heal and quiesce: no drops, everyone up, let catch-up finish.
  cluster.network().set_drop_probability(0);
  cluster.RunFor(5 * kSecond);

  // Invariant 1: some progress was made despite the churn.
  EXPECT_GT(recorder->completed(), 100u) << "cluster made no progress";

  // Invariant 2 (safety): no two replicas committed different commands
  // in the same slot.
  EXPECT_EQ(CheckLogConsistency(cluster, kNodes), "");

  // Invariant 3: exactly one leader among live replicas.
  size_t leaders = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    leaders += PaxosAt(cluster, i)->IsLeader();
  }
  EXPECT_EQ(leaders, 1u);

  // Invariant 4 (convergence): all replicas executed identical prefixes —
  // compare stores at the minimum executed point by re-checking full
  // equality after quiescence (all should have caught up fully).
  auto reference = PaxosAt(cluster, 0)->store().Dump();
  for (NodeId i = 1; i < kNodes; ++i) {
    EXPECT_EQ(PaxosAt(cluster, i)->store().Dump(), reference)
        << "replica " << i << " diverged after quiesce";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusChaosTest,
    ::testing::Values(ChaosParams{1, 0.00, false},
                      ChaosParams{2, 0.02, false},
                      ChaosParams{3, 0.05, false},
                      ChaosParams{4, 0.02, false},
                      ChaosParams{1, 0.00, true},
                      ChaosParams{2, 0.02, true},
                      ChaosParams{3, 0.05, true},
                      ChaosParams{4, 0.02, true},
                      ChaosParams{5, 0.05, true},
                      ChaosParams{6, 0.02, true}),
    ChaosName);

// ---------------------------------------------------------------------------

class PartitionHealTest : public ::testing::TestWithParam<uint64_t> {};

/// Repeatedly partitions the cluster into random majority/minority splits
/// and heals; committed state must never fork.
TEST_P(PartitionHealTest, NoForksAcrossPartitions) {
  constexpr size_t kNodes = 5;
  sim::ClusterOptions copt;
  copt.seed = GetParam();
  sim::Cluster cluster(copt);
  pigpaxos::PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  AddReplicas(cluster, PigSpec(kNodes, opt));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  for (uint32_t i = 0; i < 3; ++i) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = kNodes;
    ccfg.request_timeout = 300 * kMillisecond;
    cluster.AddClient(
        sim::Cluster::MakeClientId(i),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();
  cluster.RunFor(500 * kMillisecond);

  Rng chaos(GetParam() * 31 + 7);
  for (int round = 0; round < 5; ++round) {
    // Random split: each node lands in group 0 or 1.
    for (NodeId i = 0; i < kNodes; ++i) {
      cluster.network().SetPartitionGroup(
          i, static_cast<int>(chaos.NextBounded(2)));
    }
    cluster.RunFor(700 * kMillisecond);
    cluster.network().HealPartitions();
    cluster.RunFor(700 * kMillisecond);
  }
  cluster.RunFor(5 * kSecond);

  EXPECT_EQ(CheckLogConsistency(cluster, kNodes), "");
  EXPECT_GT(recorder->completed(), 50u);
  auto reference = PaxosAt(cluster, 0)->store().Dump();
  for (NodeId i = 1; i < kNodes; ++i) {
    EXPECT_EQ(PaxosAt(cluster, i)->store().Dump(), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionHealTest,
                         ::testing::Values(11, 12, 13, 14, 15));

// ---------------------------------------------------------------------------

/// Quorum math under pipelining: with pipeline depth k the leader keeps k
/// uncommitted slots in flight, so a failover can find many slots in
/// intermediate states — but any slot that ever reported committed must
/// keep exactly that command on every replica forever, including under
/// flexible quorums (q2 = 2 of 5 makes phase-2 "cheap" and phase-1
/// adoption do the heavy lifting). The test repeatedly kills the leader
/// mid-pipeline and diffs every replica's committed slots against the
/// accumulated commit history.
struct PipelineQuorumParams {
  uint64_t seed;
  size_t pipeline_depth;
};

class PipelinedFlexQuorumTest
    : public ::testing::TestWithParam<PipelineQuorumParams> {};

TEST_P(PipelinedFlexQuorumTest, CommittedSlotsSurviveLeaderFailover) {
  const PipelineQuorumParams& p = GetParam();
  constexpr size_t kNodes = 5;
  sim::ClusterOptions copt;
  copt.seed = p.seed;
  sim::Cluster cluster(copt);

  pigpaxos::PigPaxosOptions opt;
  opt.paxos.quorum = std::make_shared<FlexibleQuorum>(kNodes, 4, 2);
  opt.paxos.batch_size = 4;
  opt.paxos.pipeline_depth = p.pipeline_depth;
  opt.paxos.compaction_window = 1u << 30;  // keep every slot inspectable
  opt.num_relay_groups = 2;
  opt.relay_timeout = 20 * kMillisecond;
  AddReplicas(cluster, PigSpec(kNodes, opt));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  for (uint32_t i = 0; i < 6; ++i) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = kNodes;
    ccfg.request_timeout = 300 * kMillisecond;
    ccfg.workload.num_keys = 20;
    cluster.AddClient(
        sim::Cluster::MakeClientId(i),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();
  cluster.RunFor(300 * kMillisecond);

  // Accumulated history: slot -> command as first observed committed.
  std::map<SlotId, Command> committed_history;
  auto absorb_and_check = [&](int round) {
    for (NodeId i = 0; i < kNodes; ++i) {
      const auto& log = PaxosAt(cluster, i)->log();
      for (SlotId s = log.first_slot(); s <= log.last_slot(); ++s) {
        const LogEntry* e = log.Get(s);
        if (e == nullptr || !e->committed) continue;
        auto [it, inserted] = committed_history.emplace(s, e->command);
        ASSERT_TRUE(inserted || it->second == e->command)
            << "round " << round << ": slot " << s << " on replica " << i
            << " flipped from " << it->second.DebugString() << " to "
            << e->command.DebugString() << " after failover";
      }
    }
  };

  for (int round = 0; round < 6; ++round) {
    absorb_and_check(round);
    NodeId leader = FindLeader(cluster, kNodes);
    if (leader != kInvalidNode) {
      // Kill the leader mid-pipeline: up to `depth` uncommitted slots
      // are in flight right now.
      cluster.Crash(leader);
      cluster.RunFor(700 * kMillisecond);
      absorb_and_check(round);
      cluster.Recover(leader);
    }
    cluster.RunFor(700 * kMillisecond);
  }
  cluster.RunFor(3 * kSecond);
  absorb_and_check(999);

  EXPECT_EQ(CheckLogConsistency(cluster, kNodes), "");
  EXPECT_GT(recorder->completed(), 100u);
  EXPECT_GT(committed_history.size(), 0u);
  // The engine must actually have batched/pipelined something.
  uint64_t batches = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    batches += PaxosAt(cluster, i)->metrics().batches_proposed;
  }
  EXPECT_GT(batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PipelinedFlexQuorumTest,
    ::testing::Values(PipelineQuorumParams{41, 4},
                      PipelineQuorumParams{42, 8},
                      PipelineQuorumParams{43, 8},
                      PipelineQuorumParams{44, 16},
                      PipelineQuorumParams{45, 4}));

// ---------------------------------------------------------------------------

class EPaxosConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

/// Multi-leader conflicting traffic from every replica; all stores must
/// converge and every instance must execute.
TEST_P(EPaxosConvergenceTest, ConflictingWritesConverge) {
  constexpr size_t kNodes = 5;
  sim::ClusterOptions copt;
  copt.seed = GetParam();
  sim::Cluster cluster(copt);
  Prober* prober = MakeCluster(cluster, EPaxosSpec(kNodes));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);

  Rng rng(GetParam() * 101 + 3);
  size_t issued = 0;
  for (int i = 0; i < 100; ++i) {
    NodeId target = static_cast<NodeId>(rng.NextBounded(kNodes));
    prober->Put(target, "key" + std::to_string(rng.NextBounded(4)),
                "v" + std::to_string(i));
    issued++;
    cluster.RunFor(2 * kMillisecond);  // heavy overlap between commands
  }
  cluster.RunFor(5 * kSecond);

  EXPECT_EQ(prober->OkCount(), issued);
  auto reference = EPaxosAt(cluster, 0)->store().Dump();
  for (NodeId i = 1; i < kNodes; ++i) {
    EXPECT_EQ(EPaxosAt(cluster, i)->store().Dump(), reference)
        << "replica " << i << " diverged (seed " << GetParam() << ")";
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_EQ(EPaxosAt(cluster, i)->committed_unexecuted(), 0u)
        << "replica " << i << " has stuck instances";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EPaxosConvergenceTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---------------------------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsIdenticalHistories) {
  auto run = [](uint64_t seed) {
    sim::ClusterOptions copt;
    copt.seed = seed;
    copt.network.drop_probability = 0.01;
    sim::Cluster cluster(copt);
    pigpaxos::PigPaxosOptions opt;
    opt.num_relay_groups = 2;
    AddReplicas(cluster, PigSpec(5, opt));
    auto recorder = std::make_shared<client::Recorder>();
    recorder->SetWindow(0, 10 * kSecond);
    for (uint32_t i = 0; i < 4; ++i) {
      client::ClientConfig ccfg;
      ccfg.num_replicas = 5;
      cluster.AddClient(
          sim::Cluster::MakeClientId(i),
          std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
    }
    cluster.Start();
    cluster.RunFor(2 * kSecond);
    return std::make_tuple(recorder->completed(),
                           cluster.scheduler().executed_count(),
                           PaxosAt(cluster, 0)->store().applied_count());
  };
  EXPECT_EQ(run(31), run(31));
  EXPECT_NE(std::get<1>(run(31)), std::get<1>(run(32)));
}

}  // namespace
}  // namespace pig::test
