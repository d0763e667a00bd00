// Semantics of the adversarial fault layer (net/network.h delivery
// faults, sim clock skew, harness scenario wiring): directionality of
// one-way partitions, duplicate/reorder behaviour and accounting,
// byte-identical fault-free parity, and same-seed determinism of runs
// WITH faults armed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "conformance.h"
#include "harness/scenario.h"
#include "net/network.h"
#include "sim/cluster.h"
#include "test_util.h"

namespace pig::test {
namespace {

using net::Network;
using net::NetworkOptions;

// ---------------------------------------------------------------------------
// One-way partitions are directed.

TEST(AdversarialNetworkTest, OneWayDownIsAsymmetric) {
  Network net{NetworkOptions{}};
  net.SetOneWayDown(2, true);
  EXPECT_FALSE(net.Transfer(2, 0, 100).has_value());  // mute direction
  EXPECT_TRUE(net.Transfer(0, 2, 100).has_value());   // still hears
  EXPECT_TRUE(net.Transfer(1, 0, 100).has_value());   // others untouched
  net.SetOneWayDown(2, false);
  EXPECT_TRUE(net.Transfer(2, 0, 100).has_value());
}

TEST(AdversarialNetworkTest, DirectedLinkDownLeavesReverseUp) {
  Network net{NetworkOptions{}};
  net.SetLinkDown(0, 3, true);
  EXPECT_FALSE(net.Transfer(0, 3, 10).has_value());
  EXPECT_TRUE(net.Transfer(3, 0, 10).has_value());
}

// ---------------------------------------------------------------------------
// Duplication: probability-1 links hand back a second delivery latency;
// links without the fault never touch the out-param.

TEST(AdversarialNetworkTest, DuplicationFiresPerLink) {
  Network net{NetworkOptions{}};
  net.SetLinkDuplicate(1, 0, 1.0);
  TimeNs dup = -1;
  std::optional<TimeNs> lat = net.Transfer(1, 0, 10, &dup);
  ASSERT_TRUE(lat.has_value());
  EXPECT_GE(dup, 0);  // second, independently sampled delivery
  EXPECT_EQ(net.duplicated_msgs(), 1u);

  dup = -1;
  EXPECT_TRUE(net.Transfer(0, 1, 10, &dup).has_value());
  EXPECT_EQ(dup, -1);  // reverse link has no fault: out-param untouched
  EXPECT_EQ(net.duplicated_msgs(), 1u);
}

TEST(AdversarialNetworkTest, GlobalWildcardCoversEveryLink) {
  Network net{NetworkOptions{}};
  net.SetLinkDuplicate(kInvalidNode, kInvalidNode, 1.0);
  TimeNs dup = -1;
  EXPECT_TRUE(net.Transfer(4, 2, 10, &dup).has_value());
  EXPECT_GE(dup, 0);
  net.ClearLinkFaults();
  dup = -1;
  EXPECT_TRUE(net.Transfer(4, 2, 10, &dup).has_value());
  EXPECT_EQ(dup, -1);
}

TEST(AdversarialNetworkTest, ReorderWindowBoundsExtraLatency) {
  // With a reorder window the latency is base + uniform[0, window]. The
  // LAN base is far below a second, so 1000 samples through a 1s window
  // must stay within [min base, ~1s + base] and actually spread out.
  Network plain{NetworkOptions{}, /*seed=*/7};
  std::vector<TimeNs> base;
  for (int i = 0; i < 1000; ++i) base.push_back(*plain.Transfer(0, 1, 10));
  const TimeNs base_max = *std::max_element(base.begin(), base.end());

  Network jitter{NetworkOptions{}, /*seed=*/7};
  jitter.SetLinkReorder(0, 1, kSecond);
  TimeNs seen_max = 0;
  for (int i = 0; i < 1000; ++i) {
    TimeNs lat = *jitter.Transfer(0, 1, 10);
    EXPECT_LE(lat, base_max + kSecond);
    seen_max = std::max(seen_max, lat);
  }
  EXPECT_GT(seen_max, base_max);  // the window really adds latency
  EXPECT_EQ(jitter.reordered_msgs(), 1000u);
}

// ---------------------------------------------------------------------------
// Fault-free parity: a network whose faults were armed and then disarmed
// (or armed at probability/window zero) consumes exactly the RNG draws
// of one that never had faults, so latency sequences are identical.

TEST(AdversarialNetworkTest, DisarmedFaultsAreByteIdentical) {
  Network never{NetworkOptions{}, /*seed=*/99};
  Network cleared{NetworkOptions{}, /*seed=*/99};
  cleared.SetLinkDuplicate(kInvalidNode, kInvalidNode, 0.9);
  cleared.SetLinkReorder(2, 3, 5 * kMillisecond);
  cleared.ClearLinkFaults();
  Network zeroed{NetworkOptions{}, /*seed=*/99};
  zeroed.SetLinkDuplicate(2, 3, 0.0);
  zeroed.SetLinkReorder(kInvalidNode, kInvalidNode, 0);

  for (int i = 0; i < 500; ++i) {
    const NodeId from = static_cast<NodeId>(i % 5);
    const NodeId to = static_cast<NodeId>((i + 1) % 5);
    TimeNs dup = -1;
    std::optional<TimeNs> a = never.Transfer(from, to, 10);
    std::optional<TimeNs> b = cleared.Transfer(from, to, 10, &dup);
    std::optional<TimeNs> c = zeroed.Transfer(from, to, 10);
    EXPECT_EQ(a, b) << i;
    EXPECT_EQ(a, c) << i;
    EXPECT_EQ(dup, -1) << i;
  }
  EXPECT_EQ(cleared.duplicated_msgs(), 0u);
  EXPECT_EQ(cleared.reordered_msgs(), 0u);
}

// ---------------------------------------------------------------------------
// Clock skew scales timer delays at registration; 1.0 restores.

class TimerProbe : public Actor {
 public:
  void OnStart() override {
    env_->SetTimer(100 * kMillisecond, [this] { fired_at = env_->Now(); });
  }
  void OnMessage(NodeId, const MessagePtr&) override {}
  TimeNs fired_at = -1;
};

TEST(AdversarialClockSkewTest, SkewStretchesAndRestores) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  auto own0 = std::make_unique<TimerProbe>();
  auto own1 = std::make_unique<TimerProbe>();
  auto own2 = std::make_unique<TimerProbe>();
  TimerProbe* slow = own0.get();
  TimerProbe* fast = own1.get();
  TimerProbe* normal = own2.get();
  cluster.AddReplica(0, std::move(own0));
  cluster.AddReplica(1, std::move(own1));
  cluster.AddReplica(2, std::move(own2));
  cluster.SetClockSkew(0, 2.0);   // slow clock: deadlines land late
  cluster.SetClockSkew(1, 0.5);   // fast clock: deadlines land early
  EXPECT_EQ(cluster.ClockSkewOf(0), 2.0);
  cluster.Start();
  cluster.RunFor(400 * kMillisecond);

  EXPECT_EQ(normal->fired_at, 100 * kMillisecond);
  EXPECT_EQ(slow->fired_at, 200 * kMillisecond);
  EXPECT_EQ(fast->fired_at, 50 * kMillisecond);

  // Restoring to 1.0 affects newly armed timers.
  cluster.SetClockSkew(0, 1.0);
  EXPECT_EQ(cluster.ClockSkewOf(0), 1.0);
}

// ---------------------------------------------------------------------------
// Determinism: the SAME seed with delivery faults armed produces the
// SAME run, twice; and arming-then-zeroing mid-scenario leaves the
// conformance run identical to one that never armed anything.

ConformanceConfig FaultyConfig() {
  ConformanceConfig cfg;
  cfg.name = "determinism-probe";
  cfg.scenario.name = "determinism-probe";
  cfg.scenario.schedule = {
      harness::DuplicateLinkEvent(200 * kMillisecond, kInvalidNode,
                                  kInvalidNode, 0.4),
      harness::ReorderLinkEvent(200 * kMillisecond, kInvalidNode,
                                kInvalidNode, 5 * kMillisecond),
      harness::OneWayPartitionEvent(400 * kMillisecond, 2, kInvalidNode,
                                    true),
      harness::ClockSkewEvent(500 * kMillisecond, 1, 1.4),
      harness::OneWayPartitionEvent(800 * kMillisecond, 2, kInvalidNode,
                                    false),
  };
  return cfg;
}

TEST(AdversarialDeterminismTest, SameSeedSameRunWithFaults) {
  const ConformanceConfig cfg = FaultyConfig();
  ConformanceResult a = RunConformance(cfg, 4242);
  ConformanceResult b = RunConformance(cfg, 4242);
  EXPECT_EQ(a.violation, "");
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.acked_writes, b.acked_writes);
  EXPECT_EQ(a.committed_commands, b.committed_commands);
  EXPECT_EQ(a.batches_proposed, b.batches_proposed);
}

TEST(AdversarialDeterminismTest, ZeroedFaultsMatchNeverArmed) {
  // Scheduling the new fault kinds at zero probability/window/identity
  // skew must be byte-identical to a scenario without them: completed
  // op counts and commit counts match exactly.
  ConformanceConfig off;
  off.name = "faults-zeroed";
  off.scenario.name = "faults-zeroed";
  off.scenario.schedule = {
      harness::DuplicateLinkEvent(200 * kMillisecond, kInvalidNode,
                                  kInvalidNode, 0.0),
      harness::ReorderLinkEvent(200 * kMillisecond, kInvalidNode,
                                kInvalidNode, 0),
      harness::ClockSkewEvent(300 * kMillisecond, 1, 1.0),
      harness::HealEvent(900 * kMillisecond),
  };
  ConformanceConfig plain;
  plain.name = "faults-absent";
  plain.scenario.name = "faults-absent";
  plain.scenario.schedule = {
      harness::HealEvent(900 * kMillisecond),
  };
  ConformanceResult z = RunConformance(off, 7);
  ConformanceResult p = RunConformance(plain, 7);
  EXPECT_EQ(z.violation, "");
  EXPECT_EQ(z.completed_ops, p.completed_ops);
  EXPECT_EQ(z.acked_writes, p.acked_writes);
  EXPECT_EQ(z.committed_commands, p.committed_commands);
}

// ---------------------------------------------------------------------------
// EPaxos under duplication: duplicated replies must not fake quorums
// (voter masks), duplicated commits must not double-execute, and a
// duplicated client request must be answered exactly once per seq.

TEST(AdversarialEPaxosTest, DuplicationNeverDoubleApplies) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  epaxos::EPaxosOptions opt;
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5, opt));
  cluster.network().SetLinkDuplicate(kInvalidNode, kInvalidNode, 1.0);
  cluster.Start();
  cluster.RunFor(50 * kMillisecond);

  for (int i = 0; i < 10; ++i) {
    prober->Put(static_cast<NodeId>(i % 5), "k",
                "v" + std::to_string(i));
    cluster.RunFor(100 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);

  // Every seq was acked (duplicate replies are permitted — a late dup of
  // an executed request re-sends the cached reply; duplicate APPLIES are
  // not), and every replica applied each write exactly once.
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    EXPECT_NE(prober->FindReply(seq), nullptr) << "seq " << seq;
  }
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(EPaxosAt(cluster, i)->store().VersionOf("k"), 10u)
        << "replica " << i;
    EXPECT_EQ(EPaxosAt(cluster, i)->store().Get("k"), "v9");
  }
}

}  // namespace
}  // namespace pig::test
