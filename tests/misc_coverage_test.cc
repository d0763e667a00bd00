// Remaining coverage: message debug strings, scheduler stress, histogram
// distribution properties, EPaxos dep-set helpers, and cluster traffic
// accounting invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "client/closed_loop_client.h"
#include "common/histogram.h"
#include "epaxos/messages.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "sim/cluster.h"
#include "test_util.h"

namespace pig::test {
namespace {

TEST(DebugStringTest, MessagesDescribeThemselves) {
  paxos::P1a p1a;
  p1a.ballot = Ballot(3, 1);
  EXPECT_NE(p1a.DebugString().find("P1a"), std::string::npos);
  EXPECT_NE(p1a.DebugString().find("3.1"), std::string::npos);

  paxos::P2a p2a;
  p2a.slot = 42;
  p2a.command = Command::Put("key", "v", kFirstClientId, 7);
  EXPECT_NE(p2a.DebugString().find("42"), std::string::npos);
  EXPECT_NE(p2a.DebugString().find("put"), std::string::npos);

  pigpaxos::RelayRequest rr;
  rr.relay_id = 9;
  rr.origin = 2;
  rr.inner = std::make_shared<paxos::P3>();
  EXPECT_NE(rr.DebugString().find("RelayRequest"), std::string::npos);

  epaxos::PreAccept pa;
  pa.inst = epaxos::InstanceId{3, 14};
  EXPECT_NE(pa.DebugString().find("3.14"), std::string::npos);

  Command noop = Command::Noop();
  EXPECT_NE(noop.DebugString().find("noop"), std::string::npos);
}

TEST(DepSetTest, NormalizeSortsAndDedups) {
  epaxos::DepSet deps = {{2, 5}, {0, 1}, {2, 5}, {1, 9}, {0, 1}};
  epaxos::NormalizeDeps(deps);
  ASSERT_EQ(deps.size(), 3u);
  EXPECT_EQ(deps[0], (epaxos::InstanceId{0, 1}));
  EXPECT_EQ(deps[1], (epaxos::InstanceId{1, 9}));
  EXPECT_EQ(deps[2], (epaxos::InstanceId{2, 5}));
}

TEST(DepSetTest, UnionMerges) {
  epaxos::DepSet a = {{0, 1}, {1, 2}};
  epaxos::DepSet b = {{1, 2}, {2, 3}};
  epaxos::UnionDeps(a, b);
  ASSERT_EQ(a.size(), 3u);
}

TEST(SchedulerStressTest, HundredThousandEventsStayOrdered) {
  sim::Scheduler sched;
  Rng rng(99);
  TimeNs last_seen = -1;
  bool ordered = true;
  std::vector<sim::EventId> ids;
  ids.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    TimeNs when = static_cast<TimeNs>(rng.NextBounded(10 * kSecond));
    ids.push_back(sched.ScheduleAt(when, [&, when]() {
      if (when < last_seen) ordered = false;
      last_seen = when;
    }));
  }
  // Cancel a slice of them (ids are opaque; cancel every 7th handle).
  uint64_t canceled = 0;
  for (size_t i = 7; i < ids.size(); i += 7, ++canceled) {
    sched.Cancel(ids[i]);
  }
  uint64_t ran = sched.RunAll();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(ran, 100000u - canceled);
}

TEST(HistogramDistributionTest, ExponentialPercentilesMatchTheory) {
  Histogram h;
  Rng rng(123);
  const double mean = 2e6;  // 2 ms in ns
  for (int i = 0; i < 300000; ++i) {
    h.Record(static_cast<TimeNs>(rng.NextExponential(mean)));
  }
  // p50 of Exp(mean) = mean*ln2; p99 = mean*ln100.
  EXPECT_NEAR(h.QuantileMillis(0.5), 2.0 * std::log(2.0), 0.1);
  EXPECT_NEAR(h.QuantileMillis(0.99), 2.0 * std::log(100.0), 0.5);
  EXPECT_NEAR(h.MeanMillis(), 2.0, 0.05);
}

TEST(TrafficAccountingTest, SendsEqualReceivesPlusDrops) {
  sim::ClusterOptions copt;
  copt.seed = 4;
  copt.network.drop_probability = 0.1;
  sim::Cluster cluster(copt);
  Prober* prober = MakeCluster(cluster, PaxosSpec(5));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  for (int i = 0; i < 20; ++i) {
    prober->Put(0, "t" + std::to_string(i), "v");
    cluster.RunFor(20 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);
  net::TrafficStats total = cluster.network().TotalStats();
  EXPECT_EQ(total.msgs_sent,
            total.msgs_received + cluster.network().dropped_msgs());
  EXPECT_GT(total.bytes_sent, total.bytes_received);
}

TEST(TrafficAccountingTest, ByteCountsMatchWireSizes) {
  sim::ClusterOptions copt;
  sim::Cluster cluster(copt);
  Prober* prober = MakeCluster(cluster, PaxosSpec(3));
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);
  cluster.network().ResetStats();
  uint64_t seq = prober->Put(0, "bytes", std::string(1000, 'x'));
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(seq), nullptr);
  // The client sent exactly one request; its bytes must match the
  // message's wire size.
  const auto& cs =
      cluster.network().StatsFor(sim::Cluster::MakeClientId(0));
  ClientRequest req(
      Command::Put("bytes", std::string(1000, 'x'),
                   sim::Cluster::MakeClientId(0), seq));
  EXPECT_EQ(cs.bytes_sent, req.WireSize());
  // The 1000-byte payload flowed to both followers in P2as.
  EXPECT_GT(cluster.network().StatsFor(0).bytes_sent, 2000u);
}

TEST(CpuUtilizationTest, BusyLeaderSaturates) {
  sim::ClusterOptions copt;
  copt.seed = 8;
  sim::Cluster cluster(copt);
  pigpaxos::PigPaxosOptions opt;
  opt.num_relay_groups = 2;
  AddReplicas(cluster, PigSpec(9, opt));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 10 * kSecond);
  for (uint32_t c = 0; c < 128; ++c) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = 9;
    cluster.AddClient(
        sim::Cluster::MakeClientId(c),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();
  cluster.RunUntil(1 * kSecond);
  cluster.ResetCpuStats();
  cluster.RunUntil(2 * kSecond);
  // The leader is the bottleneck (util ~1); followers are far below.
  EXPECT_GT(cluster.CpuUtilization(0, 1 * kSecond), 0.95);
  double follower_util = 0;
  for (NodeId i = 1; i < 9; ++i) {
    follower_util =
        std::max(follower_util, cluster.CpuUtilization(i, 1 * kSecond));
  }
  EXPECT_LT(follower_util, 0.7);
}

TEST(InstanceIdTest, OrderingAndHash) {
  epaxos::InstanceId a{1, 5}, b{1, 6}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  epaxos::InstanceIdHash hash;
  EXPECT_NE(hash(a), hash(b));
  EXPECT_EQ(a.ToString(), "1.5");
}

}  // namespace
}  // namespace pig::test
