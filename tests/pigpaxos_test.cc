// PigPaxos integration tests: relay-tree commit flow, relay rotation,
// relay/follower failures (Fig. 5), partial responses (§4.2), dynamic
// regrouping (§4.1), multi-layer trees (§6.3), and the §6.4 WAN traffic
// claim.
#include <gtest/gtest.h>

#include "net/latency.h"
#include "test_util.h"

namespace pig::test {
namespace {

using pigpaxos::GroupingStrategy;
using pigpaxos::PigPaxosOptions;
using pigpaxos::PigPaxosReplica;
using pigpaxos::RelayGroupConfig;
using pigpaxos::RelayGroupPlanner;

TEST(RelayGroupPlannerTest, ContiguousPartitionCoversAllFollowers) {
  RelayGroupPlanner planner({1, 2, 3, 4, 5, 6, 7},
                            RelayGroupConfig{3, GroupingStrategy::kContiguous,
                                             nullptr});
  ASSERT_EQ(planner.num_groups(), 3u);
  size_t total = 0;
  std::set<NodeId> seen;
  for (const auto& g : planner.groups()) {
    EXPECT_FALSE(g.empty());
    total += g.size();
    seen.insert(g.begin(), g.end());
  }
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(seen.size(), 7u);  // disjoint (paper §3.3)
  // Even split: sizes 3/2/2.
  EXPECT_EQ(planner.groups()[0].size(), 3u);
}

TEST(RelayGroupPlannerTest, RoundRobinSpreads) {
  RelayGroupPlanner planner({1, 2, 3, 4, 5, 6},
                            RelayGroupConfig{2, GroupingStrategy::kRoundRobin,
                                             nullptr});
  EXPECT_EQ(planner.groups()[0], (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(planner.groups()[1], (std::vector<NodeId>{2, 4, 6}));
}

TEST(RelayGroupPlannerTest, RegionGroupingFollowsTopology) {
  auto region_of = [](NodeId n) { return static_cast<int>(n / 3); };
  RelayGroupPlanner planner({1, 2, 3, 4, 5, 6, 7, 8},
                            RelayGroupConfig{0, GroupingStrategy::kRegion,
                                             region_of});
  ASSERT_EQ(planner.num_groups(), 3u);  // regions 0,1,2
  for (const auto& g : planner.groups()) {
    int r = region_of(g[0]);
    for (NodeId n : g) EXPECT_EQ(region_of(n), r);
  }
}

TEST(RelayGroupPlannerTest, MoreGroupsThanFollowersClamps) {
  RelayGroupPlanner planner({1, 2},
                            RelayGroupConfig{5, GroupingStrategy::kContiguous,
                                             nullptr});
  EXPECT_EQ(planner.num_groups(), 2u);
}

TEST(RelayGroupPlannerTest, PickRelayIsUniformish) {
  RelayGroupPlanner planner({1, 2, 3, 4},
                            RelayGroupConfig{1, GroupingStrategy::kContiguous,
                                             nullptr});
  Rng rng(5);
  std::map<NodeId, int> counts;
  for (int i = 0; i < 4000; ++i) counts[planner.PickRelay(0, rng)]++;
  for (NodeId n : {1, 2, 3, 4}) {
    EXPECT_GT(counts[n], 800) << "relay " << n << " under-selected";
  }
}

TEST(RelayGroupPlannerTest, ReshufflePreservesMembership) {
  RelayGroupPlanner planner({1, 2, 3, 4, 5, 6},
                            RelayGroupConfig{2, GroupingStrategy::kContiguous,
                                             nullptr});
  Rng rng(6);
  auto before = planner.groups();
  planner.Reshuffle(rng);
  std::set<NodeId> seen;
  for (const auto& g : planner.groups()) seen.insert(g.begin(), g.end());
  EXPECT_EQ(seen, (std::set<NodeId>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(planner.num_groups(), 2u);
}

// ---------------------------------------------------------------------------

TEST(PigPaxosTest, CommitsThroughRelays) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  EXPECT_EQ(FindLeader(cluster, 5), 0u);

  uint64_t s1 = prober->Put(0, "pig", "oink");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(s1), nullptr);

  uint64_t s2 = prober->Get(0, "pig");
  cluster.RunFor(100 * kMillisecond);
  const auto* r = prober->FindReply(s2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "oink");
  // Relay machinery actually engaged.
  uint64_t relays = 0;
  for (NodeId n = 1; n < 5; ++n) {
    relays += PigAt(cluster, n)->relay_metrics().relays_served;
  }
  EXPECT_GT(relays, 0u);
}

TEST(PigPaxosTest, LeaderTalksOnlyToRelays) {
  // On a 25-node cluster with 3 groups, a fan-out sends exactly 3
  // messages from the leader (the paper's central claim).
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 3;
  opt.paxos.heartbeat_interval = 10 * kSecond;  // silence heartbeats
  opt.paxos.election_timeout_min = 20 * kSecond;  // ...and elections
  opt.paxos.election_timeout_max = 30 * kSecond;
  Prober* prober = MakeCluster(cluster, PigSpec(25, opt));
  cluster.Start();
  cluster.RunFor(300 * kMillisecond);
  cluster.network().ResetStats();

  uint64_t seq = prober->Put(0, "solo", "round");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(prober->FindReply(seq), nullptr);

  const auto& leader_stats = cluster.network().StatsFor(0);
  // One P2a fan-out: 3 relay messages + 1 client reply.
  EXPECT_EQ(leader_stats.msgs_sent, 4u);
  // Fan-in: one aggregate per relay group.
  EXPECT_EQ(leader_stats.msgs_received, 4u);  // 3 aggregates + 1 request
}

TEST(PigPaxosTest, AllReplicasConvergeViaRelays) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 3;
  Prober* prober = MakeCluster(cluster, PigSpec(9, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 20; ++i) {
    prober->Put(0, "key" + std::to_string(i), "v" + std::to_string(i));
    cluster.RunFor(10 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);
  for (NodeId n = 0; n < 9; ++n) {
    EXPECT_EQ(PigAt(cluster, n)->store().Get("key19"), "v19")
        << "replica " << n;
  }
  EXPECT_EQ(CheckLogConsistency(cluster, 9), "");
}

TEST(PigPaxosTest, RelayRotationSpreadsLoad) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 1;  // 4 followers, one group
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 60; ++i) {
    prober->Put(0, "rot", "v");
    cluster.RunFor(10 * kMillisecond);
  }
  // Every follower should have served as relay at least once.
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_GT(PigAt(cluster, n)->relay_metrics().relays_served, 0u)
        << "follower " << n << " never relayed";
  }
}

TEST(PigPaxosTest, FollowerFailureTriggersRelayTimeoutButCommits) {
  // Fig. 5a: a dead leaf member forces its relay to time out; the leader
  // still reaches quorum from the other groups + partial aggregates.
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_timeout = 20 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PigSpec(7, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  cluster.Crash(6);  // a follower (leaf or relay)
  size_t committed = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t seq = prober->Put(0, "ft" + std::to_string(i), "v");
    cluster.RunFor(150 * kMillisecond);
    if (prober->FindReply(seq) != nullptr) committed++;
  }
  EXPECT_EQ(committed, 10u);
  EXPECT_EQ(CheckLogConsistency(cluster, 6), "");
}

TEST(PigPaxosTest, RelayCrashRecoveredByLeaderRetry) {
  // Fig. 5b: kill ALL followers of one group mid-run; rounds that pick a
  // dead relay stall until the leader's retry picks fresh relays.
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_timeout = 20 * kMillisecond;
  opt.paxos.propose_retry_timeout = 40 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PigSpec(7, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  // Contiguous groups over followers {1..6}: group0={1,2,3}, group1={4,5,6}.
  cluster.Crash(4);
  cluster.Crash(5);
  cluster.Crash(6);
  // Quorum = 4 = leader + group0: still reachable.
  size_t committed = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t seq = prober->Put(0, "rc" + std::to_string(i), "v");
    cluster.RunFor(200 * kMillisecond);
    if (prober->FindReply(seq) != nullptr) committed++;
  }
  EXPECT_EQ(committed, 10u);
}

TEST(PigPaxosTest, LeaderFailoverWorksThroughRelays) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  uint64_t s1 = prober->Put(0, "pre", "crash");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(s1), nullptr);

  cluster.Crash(0);
  cluster.RunFor(1500 * kMillisecond);
  NodeId leader = FindLeader(cluster, 5);
  ASSERT_NE(leader, kInvalidNode);
  ASSERT_NE(leader, 0u);

  uint64_t s2 = prober->Get(leader, "pre");
  cluster.RunFor(300 * kMillisecond);
  const auto* r = prober->FindReply(s2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "crash");
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

TEST(PigPaxosTest, PartialResponsesCutRelayWait) {
  // §4.2: with threshold g_i, the relay forwards the first batch as soon
  // as it has g_i responses even when a member is sluggish (crashed).
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 1;  // followers {1..6} in one group
  opt.group_response_threshold = 4;
  opt.relay_timeout = 200 * kMillisecond;  // long, so timeout can't help
  Prober* prober = MakeCluster(cluster, PigSpec(7, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  cluster.Crash(6);
  uint64_t seq = prober->Put(0, "thresh", "old");
  cluster.RunFor(100 * kMillisecond);  // < relay_timeout
  ASSERT_NE(prober->FindReply(seq), nullptr);
  uint64_t early = 0;
  for (NodeId n = 1; n < 7; ++n) {
    early += PigAt(cluster, n)->relay_metrics().early_batches;
  }
  EXPECT_GT(early, 0u);
}

TEST(PigPaxosTest, MultiLayerTreeStillCommits) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.relay_layers = 2;
  opt.sub_groups = 2;
  Prober* prober = MakeCluster(cluster, PigSpec(15, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    uint64_t seq = prober->Put(0, "deep" + std::to_string(i), "tree");
    cluster.RunFor(100 * kMillisecond);
    EXPECT_NE(prober->FindReply(seq), nullptr) << "op " << i;
  }
  EXPECT_EQ(CheckLogConsistency(cluster, 15), "");
}

TEST(PigPaxosTest, DynamicReshuffleKeepsCommitting) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  opt.reshuffle_interval = 50 * kMillisecond;
  Prober* prober = MakeCluster(cluster, PigSpec(9, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  for (int i = 0; i < 20; ++i) {
    uint64_t seq = prober->Put(0, "shuf", "fle");
    cluster.RunFor(30 * kMillisecond);
    EXPECT_NE(prober->FindReply(seq), nullptr) << "op " << i;
  }
  EXPECT_GT(PigAt(cluster, 0)->relay_metrics().reshuffles, 2u);
}

TEST(PigPaxosTest, WanCrossRegionTrafficMatchesPaper) {
  // §6.4: 3 regions x 3 nodes, leader in region 0. Per write, PigPaxos
  // sends 2 messages across WAN (one per remote relay group) vs 6 remote
  // unicasts for Paxos (fan-in responses cross back in both).
  auto run = [](bool pig) {
    auto topo = net::MakeVaCaOrTopology();
    for (NodeId n = 0; n < 9; ++n) topo->AssignRegion(n, n / 3);
    sim::ClusterOptions copt;
    copt.network.latency = topo;
    sim::Cluster cluster(copt);
    Prober* prober;
    if (pig) {
      PigPaxosOptions opt;
      opt.grouping = GroupingStrategy::kRegion;  // regions n / 3
      opt.paxos.heartbeat_interval = 10 * kSecond;
      opt.paxos.election_timeout_min = 20 * kSecond;  // silence timers
      opt.paxos.election_timeout_max = 30 * kSecond;
      prober = MakeCluster(cluster, PigSpec(9, opt));
    } else {
      paxos::PaxosOptions opt;
      opt.heartbeat_interval = 10 * kSecond;
      opt.election_timeout_min = 20 * kSecond;
      opt.election_timeout_max = 30 * kSecond;
      prober = MakeCluster(cluster, PaxosSpec(9, opt));
    }
    cluster.Start();
    cluster.RunFor(500 * kMillisecond);
    uint64_t before = cluster.network().cross_region_msgs();
    uint64_t seq = prober->Put(0, "wan", "write");
    cluster.RunFor(500 * kMillisecond);
    EXPECT_NE(prober->FindReply(seq), nullptr);
    return cluster.network().cross_region_msgs() - before;
  };
  uint64_t pig_cross = run(true);
  uint64_t paxos_cross = run(false);
  // Fan-out: Pig 2 vs Paxos 6. With responses: Pig 4 vs Paxos 12.
  EXPECT_EQ(pig_cross, 4u);
  EXPECT_EQ(paxos_cross, 12u);
}

TEST(PigPaxosTest, RejectFastTrackOnStaleBallot) {
  // A deposed leader's P2a must be rejected promptly through the relay
  // path so it steps down.
  sim::Cluster cluster{sim::ClusterOptions{}};
  PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  Prober* prober = MakeCluster(cluster, PigSpec(5, opt));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  ASSERT_EQ(FindLeader(cluster, 5), 0u);
  // Force node 1 to take over leadership with a higher ballot.
  static_cast<PigPaxosReplica*>(cluster.actor(1))->TriggerElection();
  cluster.RunFor(200 * kMillisecond);
  EXPECT_EQ(FindLeader(cluster, 5), 1u);
  // Old leader proposing now gets nacked and steps down.
  uint64_t seq = prober->Put(0, "stale", "ballot");
  cluster.RunFor(300 * kMillisecond);
  EXPECT_FALSE(PigAt(cluster, 0)->IsLeader());
  (void)seq;
  EXPECT_EQ(CheckLogConsistency(cluster, 5), "");
}

}  // namespace
}  // namespace pig::test
