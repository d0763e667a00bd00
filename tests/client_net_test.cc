// Tests for the client module (Recorder windows/timeline, closed-loop
// retry and redirect machinery) and the latency-model decorators.
#include <gtest/gtest.h>

#include "client/closed_loop_client.h"
#include "net/latency.h"
#include "sim/cluster.h"
#include "test_util.h"

namespace pig::test {
namespace {

// --- Recorder -----------------------------------------------------------

TEST(RecorderTest, WindowFiltersCompletions) {
  client::Recorder rec;
  rec.SetWindow(1 * kSecond, 2 * kSecond);
  rec.RecordCompletion(900 * kMillisecond, 950 * kMillisecond, false);
  rec.RecordCompletion(1100 * kMillisecond, 1200 * kMillisecond, false);
  rec.RecordCompletion(1900 * kMillisecond, 2000 * kMillisecond, false);
  EXPECT_EQ(rec.completed(), 1u);  // only the middle one is in-window
  EXPECT_DOUBLE_EQ(rec.Throughput(), 1.0);
}

TEST(RecorderTest, TimelineBucketsBySecond) {
  client::Recorder rec;
  rec.SetWindow(0, 10 * kSecond);
  rec.RecordCompletion(0, 500 * kMillisecond, false);
  rec.RecordCompletion(0, 1500 * kMillisecond, false);
  rec.RecordCompletion(0, 1700 * kMillisecond, true);
  ASSERT_GE(rec.timeline().size(), 2u);
  EXPECT_EQ(rec.timeline()[0], 1u);
  EXPECT_EQ(rec.timeline()[1], 2u);
}

TEST(RecorderTest, LatencyHistogramFeeds) {
  client::Recorder rec;
  rec.SetWindow(0, kSecond);
  rec.RecordCompletion(0, 2 * kMillisecond, false);
  rec.RecordCompletion(0, 4 * kMillisecond, false);
  EXPECT_EQ(rec.latency().count(), 2u);
  EXPECT_GT(rec.latency().MeanMillis(), 2.0);
  EXPECT_LT(rec.latency().MeanMillis(), 4.1);
}

// --- Closed-loop client mechanics ----------------------------------------

/// Replica stub that ignores the first `drop` requests, then answers; can
/// also answer with NotLeader redirects.
class ScriptedReplica : public Actor {
 public:
  explicit ScriptedReplica(int drop, NodeId redirect_to = kInvalidNode)
      : drop_(drop), redirect_to_(redirect_to) {}

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    if (msg->type() != MsgType::kClientRequest) return;
    requests++;
    const auto& req = static_cast<const ClientRequest&>(*msg);
    if (drop_ > 0) {
      drop_--;
      return;
    }
    auto reply = std::make_shared<ClientReply>();
    reply->seq = req.cmd.seq;
    if (redirect_to_ != kInvalidNode) {
      reply->code = StatusCode::kNotLeader;
      reply->leader_hint = redirect_to_;
    } else {
      reply->code = StatusCode::kOk;
    }
    env_->Send(from, std::move(reply));
  }

  int requests = 0;

 private:
  int drop_;
  NodeId redirect_to_;
};

TEST(ClosedLoopClientTest, RetriesAfterTimeout) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  auto replica = std::make_unique<ScriptedReplica>(/*drop=*/2);
  ScriptedReplica* rep = replica.get();
  cluster.AddReplica(0, std::move(replica));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  client::ClientConfig cfg;
  cfg.num_replicas = 1;
  cfg.request_timeout = 100 * kMillisecond;
  cluster.AddClient(
      sim::Cluster::MakeClientId(0),
      std::make_unique<client::ClosedLoopClient>(cfg, recorder));
  cluster.Start();
  cluster.RunFor(1 * kSecond);
  // First request dropped twice -> two timeouts -> third attempt answers,
  // then the loop continues.
  EXPECT_EQ(recorder->timeouts(), 2u);
  EXPECT_GT(recorder->completed(), 0u);
  EXPECT_GE(rep->requests, 3);
}

TEST(ClosedLoopClientTest, FollowsRedirects) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  cluster.AddReplica(
      0, std::make_unique<ScriptedReplica>(0, /*redirect_to=*/1));
  auto leader = std::make_unique<ScriptedReplica>(0);
  ScriptedReplica* lead = leader.get();
  cluster.AddReplica(1, std::move(leader));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  client::ClientConfig cfg;
  cfg.num_replicas = 2;
  cfg.initial_target = 0;  // points at the redirecting node
  cluster.AddClient(
      sim::Cluster::MakeClientId(0),
      std::make_unique<client::ClosedLoopClient>(cfg, recorder));
  cluster.Start();
  cluster.RunFor(500 * kMillisecond);
  EXPECT_GT(recorder->redirects(), 0u);
  EXPECT_GT(recorder->completed(), 10u);
  EXPECT_GT(lead->requests, 10);
}

TEST(ClosedLoopClientTest, OneOutstandingRequestAtATime) {
  // With a replica that answers instantly and zero latency jitter, the
  // number of requests equals the number of completions + at most one.
  sim::ClusterOptions copt;
  copt.network.latency = std::make_shared<net::LanLatency>(
      100 * kMicrosecond, 0);
  sim::Cluster cluster(copt);
  auto replica = std::make_unique<ScriptedReplica>(0);
  ScriptedReplica* rep = replica.get();
  cluster.AddReplica(0, std::move(replica));
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  client::ClientConfig cfg;
  cfg.num_replicas = 1;
  cluster.AddClient(
      sim::Cluster::MakeClientId(0),
      std::make_unique<client::ClosedLoopClient>(cfg, recorder));
  cluster.Start();
  cluster.RunFor(200 * kMillisecond);
  EXPECT_LE(static_cast<uint64_t>(rep->requests),
            recorder->completed() + 1);
}

// --- Latency models --------------------------------------------------------

TEST(LatencyModelTest, LanJitterWithinBounds) {
  net::LanLatency lan(200 * kMicrosecond, 50 * kMicrosecond);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    TimeNs t = lan.Sample(0, 1, rng);
    EXPECT_GE(t, 150 * kMicrosecond);
    EXPECT_LE(t, 250 * kMicrosecond);
  }
}

TEST(LatencyModelTest, RegionalMatrixSymmetricLookups) {
  auto topo = net::MakeVaCaOrTopology();
  topo->AssignRegion(0, net::kVirginia);
  topo->AssignRegion(1, net::kOregon);
  Rng rng(2);
  TimeNs va_or = topo->Sample(0, 1, rng);
  TimeNs or_va = topo->Sample(1, 0, rng);
  EXPECT_NEAR(static_cast<double>(va_or), 36e6, 1e5 + 5e4);
  EXPECT_NEAR(static_cast<double>(or_va), 36e6, 1e5 + 5e4);
  EXPECT_EQ(topo->num_regions(), 3u);
  EXPECT_EQ(topo->RegionOf(99), net::kVirginia);  // default region
}

TEST(LatencyModelTest, SluggishDecoratorAddsBothDirections) {
  auto slow = std::make_shared<net::SluggishNodeLatency>(
      std::make_shared<net::LanLatency>(100 * kMicrosecond, 0),
      10 * kMillisecond);
  slow->MarkSluggish(7);
  Rng rng(3);
  EXPECT_EQ(slow->Sample(0, 1, rng), 100 * kMicrosecond);
  EXPECT_EQ(slow->Sample(0, 7, rng), 100 * kMicrosecond + 10 * kMillisecond);
  EXPECT_EQ(slow->Sample(7, 0, rng), 100 * kMicrosecond + 10 * kMillisecond);
}

// --- EPaxos attribute introspection ---------------------------------------

TEST(EPaxosAttributesTest, DependenciesChainThroughConflicts) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(3));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);

  prober->Put(0, "dep", "1");  // instance {0, 0}
  cluster.RunFor(50 * kMillisecond);
  prober->Put(1, "dep", "2");  // instance {1, 0}: depends on {0,0}
  cluster.RunFor(50 * kMillisecond);
  prober->Get(2, "dep");       // instance {2, 0}: depends on {1,0}
  cluster.RunFor(50 * kMillisecond);

  const auto* rep = EPaxosAt(cluster, 0);
  const auto* i0 = rep->FindInstance({0, 0});
  const auto* i1 = rep->FindInstance({1, 0});
  const auto* i2 = rep->FindInstance({2, 0});
  ASSERT_NE(i0, nullptr);
  ASSERT_NE(i1, nullptr);
  ASSERT_NE(i2, nullptr);
  using Status = epaxos::EPaxosReplica::InstStatus;
  EXPECT_EQ(i0->status, Status::kExecuted);
  EXPECT_EQ(i1->status, Status::kExecuted);
  EXPECT_EQ(i2->status, Status::kExecuted);
  // Sequence numbers strictly increase along the conflict chain.
  EXPECT_LT(i0->seq, i1->seq);
  EXPECT_LT(i1->seq, i2->seq);
  // The write {1,0} depends on the previous write {0,0}.
  EXPECT_NE(std::find(i1->deps.begin(), i1->deps.end(),
                      (epaxos::InstanceId{0, 0})),
            i1->deps.end());
  // The read depends on the latest write {1,0}.
  EXPECT_NE(std::find(i2->deps.begin(), i2->deps.end(),
                      (epaxos::InstanceId{1, 0})),
            i2->deps.end());
}

TEST(EPaxosAttributesTest, IndependentKeysNoDeps) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(3));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  prober->Put(0, "a", "1");
  cluster.RunFor(50 * kMillisecond);
  prober->Put(1, "b", "2");
  cluster.RunFor(50 * kMillisecond);
  const auto* i1 = EPaxosAt(cluster, 0)->FindInstance({1, 0});
  ASSERT_NE(i1, nullptr);
  EXPECT_TRUE(i1->deps.empty());
}

}  // namespace
}  // namespace pig::test
