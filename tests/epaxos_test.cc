// EPaxos integration tests: fast path on conflict-free commands, slow
// path under conflicts, dependency-ordered execution, multi-leader
// operation, and cross-replica state convergence.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pig::test {
namespace {

using epaxos::EPaxosReplica;

TEST(EPaxosQuorumTest, FastQuorumSizes) {
  // N = 2F+1; fast quorum = F + floor((F+1)/2), counting the leader.
  EXPECT_EQ(EPaxosReplica::FastQuorumSize(3), 2u);
  EXPECT_EQ(EPaxosReplica::FastQuorumSize(5), 3u);
  EXPECT_EQ(EPaxosReplica::FastQuorumSize(7), 5u);
  EXPECT_EQ(EPaxosReplica::FastQuorumSize(9), 6u);
  EXPECT_EQ(EPaxosReplica::FastQuorumSize(25), 18u);
  EXPECT_EQ(EPaxosReplica::SlowQuorumSize(5), 3u);
  EXPECT_EQ(EPaxosReplica::SlowQuorumSize(25), 13u);
}

/// Sends arbitrary, well-formed protocol messages, as any TCP peer of
/// pig_node --protocol=epaxos can.
class Injector : public Actor {
 public:
  void OnMessage(NodeId, const MessagePtr&) override {}
  void Send(NodeId to, MessagePtr msg) { env_->Send(to, std::move(msg)); }
};

// Instance owners and dependencies index the per-replica instance
// tables, so an owner id outside the cluster must be refused at
// dispatch (under ASan this was a heap-buffer-overflow).
TEST(EPaxosTest, OutOfRangeInstanceOwnerIsRejected) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(3));
  auto owner = std::make_unique<Injector>();
  Injector* peer = owner.get();
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(owner));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);

  auto pre = std::make_shared<epaxos::PreAccept>();
  pre->inst = epaxos::InstanceId{1000, 0};
  pre->cmd = Command::Put("x", "bad", sim::Cluster::MakeClientId(1), 1);
  peer->Send(0, pre);
  auto commit = std::make_shared<epaxos::ECommit>();
  commit->inst = epaxos::InstanceId{1, 7};
  commit->cmd = Command::Put("y", "bad", sim::Cluster::MakeClientId(1), 2);
  commit->deps = {epaxos::InstanceId{1000, 0}};
  peer->Send(0, commit);
  cluster.RunFor(50 * kMillisecond);

  // The replica keeps serving.
  const uint64_t put = prober->Put(0, "z", "1");
  cluster.RunFor(50 * kMillisecond);
  const uint64_t get = prober->Get(0, "z");
  cluster.RunFor(50 * kMillisecond);
  EXPECT_NE(prober->FindReply(put), nullptr);
  const auto* r = prober->FindReply(get);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "1");
  EXPECT_EQ(EPaxosAt(cluster, 0)->store().Get("y"), "");
}

TEST(EPaxosTest, CommitsAtAnyReplica) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  // Submit to three different replicas.
  uint64_t s1 = prober->Put(0, "a", "1");
  cluster.RunFor(50 * kMillisecond);
  uint64_t s2 = prober->Put(2, "b", "2");
  cluster.RunFor(50 * kMillisecond);
  uint64_t s3 = prober->Get(4, "a");
  cluster.RunFor(50 * kMillisecond);
  EXPECT_NE(prober->FindReply(s1), nullptr);
  EXPECT_NE(prober->FindReply(s2), nullptr);
  const auto* r = prober->FindReply(s3);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "1");
}

TEST(EPaxosTest, NonConflictingCommandsTakeFastPath) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  // Different keys, sequential: no interference.
  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "distinct" + std::to_string(i), "v");
    cluster.RunFor(30 * kMillisecond);
  }
  const auto& m = EPaxosAt(cluster, 0)->metrics();
  EXPECT_EQ(m.fast_path_commits, 10u);
  EXPECT_EQ(m.slow_path_commits, 0u);
}

TEST(EPaxosTest, SequentialSameKeyStillFastPath) {
  // Same key but sequential: deps match everywhere, attributes agree.
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    prober->Put(0, "same", "v" + std::to_string(i));
    cluster.RunFor(30 * kMillisecond);
  }
  EXPECT_EQ(EPaxosAt(cluster, 0)->store().Get("same"), "v4");
  EXPECT_GE(EPaxosAt(cluster, 0)->metrics().fast_path_commits, 4u);
}

/// Client that fires two conflicting writes at two replicas at once.
class ConcurrentWriter : public Actor {
 public:
  explicit ConcurrentWriter(std::string key) : key_(std::move(key)) {}
  void OnStart() override {
    env_->Send(0, std::make_shared<ClientRequest>(
                      Command::Put(key_, "from0", env_->self(), 1)));
  }
  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (msg->type() == MsgType::kClientReply) replies++;
  }
  int replies = 0;

 private:
  std::string key_;
};

TEST(EPaxosTest, ConcurrentConflictingWritesConvergeEverywhere) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  // Two independent clients write the same key to different replicas at
  // the same instant.
  epaxos::EPaxosOptions opt;
  AddReplicas(cluster, EPaxosSpec(5, opt));
  auto mk = [&](uint32_t idx, NodeId target) {
    class W : public Actor {
     public:
      W(NodeId target) : target_(target) {}
      void OnStart() override {
        env_->Send(target_, std::make_shared<ClientRequest>(Command::Put(
                                "hot", "w" + std::to_string(target_),
                                env_->self(), 1)));
      }
      void OnMessage(NodeId, const MessagePtr&) override { replies++; }
      int replies = 0;

     private:
      NodeId target_;
    };
    auto w = std::make_unique<W>(target);
    auto* p = w.get();
    cluster.AddClient(sim::Cluster::MakeClientId(idx), std::move(w));
    return p;
  };
  auto* w0 = mk(0, 0);
  auto* w1 = mk(1, 3);
  cluster.Start();
  cluster.RunFor(2 * kSecond);
  EXPECT_GE(w0->replies, 1);
  EXPECT_GE(w1->replies, 1);
  // All replicas converge on the same final value for the hot key.
  std::string v0 = EPaxosAt(cluster, 0)->store().Get("hot");
  EXPECT_FALSE(v0.empty());
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(EPaxosAt(cluster, n)->store().Get("hot"), v0)
        << "replica " << n << " diverged";
  }
  // At least one side observed interference.
  uint64_t conflicts = 0;
  for (NodeId n = 0; n < 5; ++n) {
    conflicts += EPaxosAt(cluster, n)->metrics().conflicts;
  }
  EXPECT_GT(conflicts, 0u);
}

TEST(EPaxosTest, HighContentionWorkloadConvergesAndCompletes) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  // Hammer 3 keys from alternating replicas (paper-style contention).
  size_t issued = 0;
  for (int i = 0; i < 60; ++i) {
    prober->Put(static_cast<NodeId>(i % 5), "hot" + std::to_string(i % 3),
                "v" + std::to_string(i));
    issued++;
    cluster.RunFor(5 * kMillisecond);
  }
  cluster.RunFor(2 * kSecond);
  EXPECT_EQ(prober->OkCount(), issued);
  // Stores converge across replicas.
  auto dump0 = EPaxosAt(cluster, 0)->store().Dump();
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(EPaxosAt(cluster, n)->store().Dump(), dump0)
        << "replica " << n;
  }
  // Executions happened on every replica (committed everywhere).
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_GE(EPaxosAt(cluster, n)->metrics().executions, issued);
    EXPECT_EQ(EPaxosAt(cluster, n)->committed_unexecuted(), 0u);
  }
}

TEST(EPaxosTest, ReadsObserveConflictingWrites) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  uint64_t w = prober->Put(1, "ordered", "first");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(w), nullptr);
  uint64_t g = prober->Get(3, "ordered");
  cluster.RunFor(100 * kMillisecond);
  const auto* r = prober->FindReply(g);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "first");
}

TEST(EPaxosTest, SingleReplicaDegenerateCluster) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(1));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  uint64_t s = prober->Put(0, "solo", "x");
  cluster.RunFor(50 * kMillisecond);
  EXPECT_NE(prober->FindReply(s), nullptr);
  EXPECT_EQ(EPaxosAt(cluster, 0)->store().Get("solo"), "x");
}

TEST(EPaxosTest, DuplicateClientRequestDeduplicated) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(5));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  uint64_t seq = prober->Put(2, "dup", "v");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(seq), nullptr);
  const auto before = EPaxosAt(cluster, 2)->metrics().proposals;
  Command cmd = Command::Put("dup", "v", sim::Cluster::MakeClientId(0), seq);
  prober->Resend(2, cmd);
  cluster.RunFor(100 * kMillisecond);
  EXPECT_EQ(EPaxosAt(cluster, 2)->metrics().proposals, before);
}

TEST(EPaxosTest, MetricsAccounting) {
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeCluster(cluster, EPaxosSpec(3));
  cluster.Start();
  cluster.RunFor(10 * kMillisecond);
  for (int i = 0; i < 8; ++i) {
    prober->Put(0, "m" + std::to_string(i), "v");
    cluster.RunFor(30 * kMillisecond);
  }
  const auto& m = EPaxosAt(cluster, 0)->metrics();
  EXPECT_EQ(m.proposals, 8u);
  EXPECT_EQ(m.fast_path_commits + m.slow_path_commits, 8u);
  EXPECT_GE(m.executions, 8u);
}

}  // namespace
}  // namespace pig::test
