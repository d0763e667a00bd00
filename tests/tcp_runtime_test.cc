// Cross-runtime equivalence tests: the TCP runtime must produce exactly
// the state the thread runtime produces for the same workload, and must
// survive the same faults. Both run behind the LocalCluster facade so
// the workload and fault schedule are literally the same code.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/local_cluster.h"
#include "harness/replica_spec.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "runtime/tcp_cluster.h"
#include "runtime/thread_cluster.h"
#include "storage/file_storage.h"

namespace pig {
namespace {

using harness::LocalCluster;
using harness::LocalRuntime;

constexpr int kOps = 15;
constexpr NodeId kReplicas = 5;

harness::ReplicaSpec MakeSpec() {
  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kPigPaxos;
  spec.num_replicas = kReplicas;
  spec.pig.num_relay_groups = 2;
  return spec;
}

std::unique_ptr<Actor> MakeReplica(NodeId id) {
  return harness::MakeReplica(MakeSpec(), id);
}

/// Runs the canonical workload on the given runtime and returns each
/// replica's final store dump (collected after Stop, when loops are
/// quiescent).
std::map<NodeId, std::map<std::string, std::string>> RunWorkload(
    LocalRuntime rt) {
  LocalCluster cluster(rt, /*seed=*/11);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, MakeReplica(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  for (int i = 0; i < kOps; ++i) {
    std::string key = "eq-k" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    Result<std::string> put =
        kv->Execute(OpType::kPut, key, value, /*timeout=*/10 * kSecond);
    EXPECT_TRUE(put.ok())
        << harness::ToString(rt) << " put " << i << ": "
        << put.status().ToString();
  }
  // Let commit-index propagation (heartbeats every 20 ms) reach the
  // followers before freezing the cluster.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.Stop();

  std::map<NodeId, std::map<std::string, std::string>> dumps;
  for (NodeId i = 0; i < kReplicas; ++i) {
    const auto* replica =
        static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(i));
    dumps[i] = replica->store().Dump();
    // No command applied twice anywhere: every written key is at
    // version 1 on every replica that has it.
    for (const auto& [key, value] : dumps[i]) {
      EXPECT_EQ(replica->store().VersionOf(key), 1u)
          << harness::ToString(rt) << " node " << i << " key " << key;
    }
  }
  return dumps;
}

TEST(TcpRuntimeTest, MatchesThreadRuntimeStateExactly) {
  pigpaxos::RegisterPigPaxosMessages();

  std::map<std::string, std::string> expected;
  for (int i = 0; i < kOps; ++i) {
    expected["eq-k" + std::to_string(i)] = "v" + std::to_string(i);
  }

  auto threads = RunWorkload(LocalRuntime::kThreads);
  auto tcp = RunWorkload(LocalRuntime::kTcp);

  // The leader (node 0 stays leader: nothing crashes) must hold the full
  // write set on both runtimes.
  EXPECT_EQ(threads[0], expected);
  EXPECT_EQ(tcp[0], expected);

  // Every replica on every runtime agrees with the write set on the keys
  // it has applied — no lost, reordered, or phantom values anywhere.
  for (const auto& dumps : {threads, tcp}) {
    for (const auto& [node, dump] : dumps) {
      for (const auto& [key, value] : dump) {
        auto it = expected.find(key);
        ASSERT_NE(it, expected.end())
            << "node " << node << " applied phantom key " << key;
        EXPECT_EQ(value, it->second) << "node " << node;
      }
    }
  }

  // And the runtimes agree with each other replica-for-replica.
  EXPECT_EQ(threads, tcp);
}

// A value larger than the 64 KiB a single recv() is offered: its frames
// (client request, P2a fan-out, relay envelopes, read reply) each span
// several reads and must be reassembled intact.
TEST(TcpRuntimeTest, LargeValueSpansSeveralReads) {
  pigpaxos::RegisterPigPaxosMessages();
  LocalCluster cluster(LocalRuntime::kTcp, /*seed=*/23);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, MakeReplica(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  std::string big(200 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 7919) % 26);
  }
  Result<std::string> put =
      kv->Execute(OpType::kPut, "big", big, /*timeout=*/10 * kSecond);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  Result<std::string> get =
      kv->Execute(OpType::kGet, "big", "", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_TRUE(get.value() == big) << "read back " << get.value().size()
                                  << " bytes";
  cluster.Stop();

  const auto* leader =
      static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(0));
  EXPECT_TRUE(leader->store().Get("big") == big);
  EXPECT_EQ(leader->store().VersionOf("big"), 1u);
}

/// Records the encoding of every message it receives.
class RecordingActor : public Actor {
 public:
  void OnMessage(NodeId from, const MessagePtr& msg) override {
    (void)from;
    std::lock_guard<std::mutex> lock(mu_);
    received_.push_back(EncodeMessage(*msg));
  }

  std::vector<std::vector<uint8_t>> received() {
    std::lock_guard<std::mutex> lock(mu_);
    return received_;
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<uint8_t>> received_;
};

/// Once its connections are up, sends each of `messages_` to every
/// receiver in turn, all within one timer callback (one loop pass).
class FanOutActor : public Actor {
 public:
  FanOutActor(std::vector<NodeId> receivers,
              std::vector<MessagePtr> messages)
      : receivers_(std::move(receivers)), messages_(std::move(messages)) {}

  void OnStart() override {
    env_->SetTimer(300 * kMillisecond, [this]() {
      for (const MessagePtr& msg : messages_) {
        for (NodeId to : receivers_) env_->Send(to, msg);
      }
    });
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  std::vector<NodeId> receivers_;
  std::vector<MessagePtr> messages_;
};

// One message sent to many peers is encoded once and its bytes copied to
// each connection. Every receiver must decode exactly what was sent, in
// order, including a message sent again after a different one.
TEST(TcpRuntimeTest, FannedOutMessageDecodesIdenticallyAtEveryReceiver) {
  pigpaxos::RegisterPigPaxosMessages();
  auto p2a = MessagePool::Make<paxos::P2a>();
  p2a->ballot = Ballot(3, 0);
  p2a->slot = 42;
  p2a->command = Command::Put("fan-key", std::string(3000, 'v'), 7, 9);
  p2a->commit_index = 41;
  auto relay = MessagePool::Make<pigpaxos::RelayRequest>();
  relay->relay_id = 5;
  relay->origin = 0;
  relay->inner = p2a;
  const std::vector<MessagePtr> sent = {p2a, relay, p2a};

  constexpr NodeId kReceivers = 4;
  runtime::TcpCluster cluster(/*seed=*/29);
  std::vector<NodeId> receivers;
  std::vector<RecordingActor*> recorders;
  for (NodeId i = 1; i <= kReceivers; ++i) {
    auto actor = std::make_unique<RecordingActor>();
    recorders.push_back(actor.get());
    receivers.push_back(i);
    cluster.AddActor(i, std::move(actor));
  }
  cluster.AddActor(0, std::make_unique<FanOutActor>(receivers, sent));
  cluster.Start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (RecordingActor* r : recorders) {
    while (r->received().size() < sent.size() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  cluster.Stop();

  for (NodeId i = 0; i < kReceivers; ++i) {
    const auto got = recorders[i]->received();
    ASSERT_EQ(got.size(), sent.size()) << "receiver " << i + 1;
    for (size_t m = 0; m < sent.size(); ++m) {
      EXPECT_EQ(got[m], EncodeMessage(*sent[m]))
          << "receiver " << i + 1 << " message " << m;
    }
  }
}

class LocalRuntimeFaultTest
    : public ::testing::TestWithParam<LocalRuntime> {
 protected:
  void SetUp() override { pigpaxos::RegisterPigPaxosMessages(); }
};

TEST_P(LocalRuntimeFaultTest, SurvivesKilledAndRestartedRelay) {
  LocalCluster cluster(GetParam(), /*seed=*/13);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, MakeReplica(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  auto put = [&](const std::string& key) {
    Result<std::string> r =
        kv->Execute(OpType::kPut, key, "x", /*timeout=*/10 * kSecond);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  };

  put("before");
  // Node 3 heads the second contiguous relay group {3, 4}; killing it
  // forces the leader onto the liveness fallback while a quorum
  // (0, 1, 2, 4) keeps committing.
  cluster.StopNode(3);
  put("during");
  cluster.RestartNode(3, MakeReplica(3));
  put("after");

  Result<std::string> get =
      kv->Execute(OpType::kGet, "after", "", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value(), "x");
  cluster.Stop();

  // The leader holds all three writes exactly once.
  const auto* leader =
      static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(0));
  for (const char* key : {"before", "during", "after"}) {
    EXPECT_EQ(leader->store().Get(key), "x") << key;
    EXPECT_EQ(leader->store().VersionOf(key), 1u) << key;
  }
}

// Node 0 is the lowest id and the bootstrap leader, so every connection
// its peers prefer toward it is one they dialed. Killing it kills all of
// them at once; after the restart its peers must reach it over the
// connections the new incarnation dials while their own redials back
// off, and it must catch up with the new leader's log.
TEST_P(LocalRuntimeFaultTest, SurvivesKilledAndRestartedLowestIdLeader) {
  LocalCluster cluster(GetParam(), /*seed=*/19);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, MakeReplica(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  auto put = [&](const std::string& key) {
    Result<std::string> r =
        kv->Execute(OpType::kPut, key, "x", /*timeout=*/10 * kSecond);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  };

  put("before");
  cluster.StopNode(0);
  put("during");  // a new leader among 1..4
  cluster.RestartNode(0, MakeReplica(0));
  put("after");
  Result<std::string> get =
      kv->Execute(OpType::kGet, "during", "", /*timeout=*/10 * kSecond);
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  EXPECT_EQ(get.value(), "x");
  // Heartbeats carry the commit index; the restarted node 0 fills its
  // empty log through LogSync.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.Stop();

  const pigpaxos::PigPaxosReplica* leader = nullptr;
  for (NodeId i = 0; i < kReplicas; ++i) {
    const auto* r =
        static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(i));
    if (r->IsLeader()) leader = r;
  }
  ASSERT_NE(leader, nullptr);
  for (const char* key : {"before", "during", "after"}) {
    EXPECT_EQ(leader->store().Get(key), "x") << key;
    EXPECT_EQ(leader->store().VersionOf(key), 1u) << key;
  }
  const auto* restarted =
      static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(0));
  EXPECT_EQ(restarted->store().Dump(), leader->store().Dump());
}

// The durability acceptance test: a replica backed by FileStorage is
// killed (thread stopped, unsynced state gone with the process) and a
// fresh actor is rebuilt over the SAME data directory. Its constructor
// must recover the committed prefix from snapshot + WAL — observable as
// replayed records — and only the writes made while it was down arrive
// from peers, after which its store equals the leader's byte for byte.
TEST_P(LocalRuntimeFaultTest, DurableRestartRecoversCommittedPrefixFromDisk) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      (std::string("pig_durable_restart_") + harness::ToString(GetParam()));
  fs::remove_all(root);

  std::vector<std::unique_ptr<storage::FileStorage>> stores(kReplicas);
  auto make_durable = [&](NodeId id) -> std::unique_ptr<Actor> {
    stores[id] = std::make_unique<storage::FileStorage>(
        (root / ("node-" + std::to_string(id))).string());
    EXPECT_TRUE(stores[id]->ok())
        << stores[id]->open_error().ToString();
    harness::ReplicaSpec spec = MakeSpec();
    spec.paxos.snapshot_interval = 8;  // exercise snapshot + WAL suffix
    return harness::MakeReplica(spec, id, 0, stores[id].get());
  };

  LocalCluster cluster(GetParam(), /*seed=*/17);
  for (NodeId i = 0; i < kReplicas; ++i) {
    cluster.AddActor(i, make_durable(i));
  }
  auto client = std::make_unique<runtime::SyncClient>(kReplicas);
  runtime::SyncClient* kv = client.get();
  cluster.AddActor(kFirstClientId, std::move(client));
  cluster.Start();

  auto put = [&](const std::string& key, const std::string& value) {
    Result<std::string> r =
        kv->Execute(OpType::kPut, key, value, /*timeout=*/10 * kSecond);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  };

  for (int i = 0; i < 20; ++i) {
    put("pre-k" + std::to_string(i), "v" + std::to_string(i));
  }
  // Let heartbeats carry the commit index to node 3 so its disk holds
  // the committed prefix, then kill it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.StopNode(3);

  for (int i = 0; i < 5; ++i) {
    put("down-k" + std::to_string(i), "d" + std::to_string(i));
  }

  // kill -9 semantics: the dead incarnation's storage object goes away
  // first, then the replacement opens the same directory and recovers.
  stores[3].reset();
  cluster.RestartNode(3, make_durable(3));

  put("post-k", "p");
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  cluster.Stop();

  const auto* leader =
      static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(0));
  const auto* rebuilt =
      static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(3));

  // The prefix came from disk, not from peers.
  EXPECT_GT(rebuilt->metrics().wal_replayed_records, 0u);

  // Store dump equality with the leader, every key exactly once.
  const auto expect = leader->store().Dump();
  EXPECT_EQ(expect.size(), 26u);
  EXPECT_EQ(rebuilt->store().Dump(), expect);
  for (const auto& [key, value] : expect) {
    EXPECT_EQ(rebuilt->store().VersionOf(key), 1u) << key;
  }
  fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, LocalRuntimeFaultTest,
    ::testing::Values(LocalRuntime::kThreads, LocalRuntime::kTcp),
    [](const ::testing::TestParamInfo<LocalRuntime>& info) {
      return std::string(harness::ToString(info.param));
    });

}  // namespace
}  // namespace pig
