// Cross-runtime equivalence tests: the TCP runtime must produce exactly
// the state the thread runtime produces for the same workload, and must
// survive the same faults. Both run behind the LocalCluster facade so
// the workload and fault schedule are literally the same code.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/local_cluster.h"
#include "harness/replica_spec.h"
#include "pigpaxos/messages.h"
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
