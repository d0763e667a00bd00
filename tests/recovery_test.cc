// Crash-recovery integration tests on the simulator: replicas backed by
// fault-injecting MemStorage are kill -9'd (CrashWithDisk), rebuilt from
// snapshot + WAL, and must rejoin without losing the committed prefix.
// Also covers the recovery-path bugfix sweep:
//   * a new leader whose log has a hole below the cluster's settled
//     commit index must state-transfer the prefix, never noop-fill it,
//   * client dedup records pruned by a snapshot must still reject stale
//     retried sequence numbers (no double-apply),
//   * crash-losing-disk under stable leadership: the wiped node catches
//     up from peers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/mem_storage.h"
#include "test_util.h"

namespace pig::test {
namespace {

/// Per-replica MemStorage bank. Declared BEFORE the cluster in every
/// test so the storages outlive the replicas that hold pointers to them.
using StorageBank = std::vector<std::unique_ptr<storage::MemStorage>>;

/// A Paxos MakeCluster with one MemStorage per replica and a rebuild hook
/// implementing kill -9 semantics: unsynced appends are dropped (or the
/// whole disk wiped) before the replacement replica recovers.
Prober* MakeDurableCluster(sim::Cluster& cluster, size_t n,
                           StorageBank& bank,
                           paxos::PaxosOptions opt = {}) {
  const harness::ReplicaSpec spec = PaxosSpec(n, std::move(opt));
  bank.clear();
  for (size_t i = 0; i < n; ++i) {
    bank.push_back(std::make_unique<storage::MemStorage>());
  }
  for (NodeId i = 0; i < n; ++i) {
    cluster.AddReplica(i, harness::MakeReplica(spec, i, 0, bank[i].get()));
  }
  cluster.SetRebuildHook(
      [&bank, spec](NodeId id, bool lose_disk) -> std::unique_ptr<Actor> {
        if (lose_disk) {
          bank[id]->WipeAll();
        } else {
          bank[id]->DropUnsynced();
        }
        return harness::MakeReplica(spec, id, 0, bank[id].get());
      });
  auto prober = std::make_unique<Prober>();
  Prober* p = prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(0), std::move(prober));
  return p;
}

paxos::PaxosReplica* MutablePaxosAt(sim::Cluster& cluster, NodeId id) {
  return static_cast<paxos::PaxosReplica*>(cluster.actor(id));
}

/// The satellite invariant: within [first_slot, contiguous commit index]
/// every slot must hold a committed entry — compaction + recovery must
/// never leave a hole inside the committed prefix.
::testing::AssertionResult NoCommittedPrefixHole(sim::Cluster& cluster,
                                                 NodeId id) {
  const auto* rep = PaxosAt(cluster, id);
  const ReplicatedLog& log = rep->log();
  const SlotId ci = log.ContiguousCommitIndex();
  for (SlotId s = log.first_slot(); s <= ci; ++s) {
    const LogEntry* e = log.Get(s);
    if (e == nullptr || !e->committed) {
      return ::testing::AssertionFailure()
             << "replica " << id << " has a hole at slot " << s
             << " inside its committed prefix [" << log.first_slot()
             << ", " << ci << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RecoveryTest, FollowerCrashWithDiskReplaysWalAndRejoins) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeDurableCluster(cluster, 3, bank);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  for (int i = 0; i < 10; ++i) {
    prober->Put(0, "k" + std::to_string(i), "v" + std::to_string(i));
    cluster.RunFor(20 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);  // heartbeats spread commit index
  const auto expect = PaxosAt(cluster, 0)->store().Dump();
  ASSERT_EQ(expect.size(), 10u);

  cluster.CrashWithDisk(1);
  cluster.RunFor(100 * kMillisecond);
  cluster.Recover(1);
  cluster.RunFor(500 * kMillisecond);

  // The rebuilt replica recovered from its own disk, not just peers.
  const auto* rebuilt = PaxosAt(cluster, 1);
  EXPECT_GT(rebuilt->metrics().wal_replayed_records, 0u);
  EXPECT_EQ(rebuilt->store().Dump(), expect);
  EXPECT_TRUE(NoCommittedPrefixHole(cluster, 1));
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

TEST(RecoveryTest, LeaderCrashWithDiskClusterKeepsDataAndLeaderRejoins) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeDurableCluster(cluster, 3, bank);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  uint64_t s1 = prober->Put(0, "stable", "value");
  cluster.RunFor(100 * kMillisecond);
  ASSERT_NE(prober->FindReply(s1), nullptr);

  cluster.CrashWithDisk(0);
  cluster.RunFor(1 * kSecond);  // election timeout + phase-1
  NodeId leader = FindLeader(cluster, 3);
  ASSERT_NE(leader, kInvalidNode);
  ASSERT_NE(leader, 0u);

  uint64_t s2 = prober->Put(leader, "after", "failover");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(prober->FindReply(s2), nullptr);

  cluster.Recover(0);
  cluster.RunFor(1 * kSecond);

  // The old leader came back from disk with its promise intact (it must
  // not bootstrap a competing election) and converged on the new data.
  const auto* old_leader = PaxosAt(cluster, 0);
  EXPECT_GT(old_leader->metrics().wal_replayed_records, 0u);
  EXPECT_EQ(old_leader->store().Get("stable"), "value");
  EXPECT_EQ(old_leader->store().Get("after"), "failover");
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

TEST(RecoveryTest, UnsyncedTailIsLostButAckedWritesSurvive) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeDurableCluster(cluster, 3, bank);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  uint64_t acked = prober->Put(0, "acked", "yes");
  cluster.RunFor(200 * kMillisecond);
  ASSERT_NE(prober->FindReply(acked), nullptr);

  // Every acked write sits below a durability barrier by construction:
  // kill -9 all three replicas at once (dropping whatever tail was
  // buffered) and restart the cluster from disk alone.
  for (NodeId i = 0; i < 3; ++i) cluster.CrashWithDisk(i);
  cluster.RunFor(50 * kMillisecond);
  for (NodeId i = 0; i < 3; ++i) cluster.Recover(i);
  cluster.RunFor(2 * kSecond);

  NodeId leader = FindLeader(cluster, 3);
  ASSERT_NE(leader, kInvalidNode);
  uint64_t s2 = prober->Get(leader, "acked");
  cluster.RunFor(200 * kMillisecond);
  const auto* r = prober->FindReply(s2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "yes");
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

TEST(RecoveryTest, CrashLosingDiskCatchesUpFromPeersUnderStableLeader) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  Prober* prober = MakeDurableCluster(cluster, 3, bank);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  for (int i = 0; i < 8; ++i) {
    prober->Put(0, "k" + std::to_string(i), "v" + std::to_string(i));
    cluster.RunFor(20 * kMillisecond);
  }
  cluster.RunFor(300 * kMillisecond);
  const auto expect = PaxosAt(cluster, 0)->store().Dump();

  // Machine replacement of a FOLLOWER while the leader stays up: the
  // wiped node must come back empty and relearn everything from peers.
  cluster.CrashLosingDisk(2);
  cluster.RunFor(100 * kMillisecond);
  cluster.Recover(2);
  cluster.RunFor(2 * kSecond);

  const auto* replaced = PaxosAt(cluster, 2);
  EXPECT_EQ(replaced->metrics().wal_replayed_records, 0u);  // disk gone
  EXPECT_EQ(replaced->store().Dump(), expect);
  EXPECT_TRUE(NoCommittedPrefixHole(cluster, 2));
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

// The satellite-3 regression: a candidate that missed a compacted-away
// prefix wins an election. Its log has a hole below the settled commit
// index reported by its phase-1 quorum; adopting noops there would
// diverge from the executed history, so it must state-transfer instead.
TEST(RecoveryTest, NewLeaderWithHoleBelowSettledPrefixSyncsNotNoops) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.compaction_window = 8;
  opt.snapshot_interval = 4;
  Prober* prober = MakeDurableCluster(cluster, 3, bank, opt);
  cluster.Start();
  cluster.RunFor(100 * kMillisecond);

  // Node 2 sleeps through the whole working phase.
  cluster.Crash(2);
  for (int i = 0; i < 40; ++i) {
    prober->Put(0, "k" + std::to_string(i % 10), "v" + std::to_string(i));
    cluster.RunFor(20 * kMillisecond);
  }
  cluster.RunFor(500 * kMillisecond);
  // The survivors compacted past the window, so the prefix node 2
  // missed is no longer replayable entry-by-entry.
  ASSERT_GT(PaxosAt(cluster, 1)->log().first_slot(), 0);
  const auto expect = PaxosAt(cluster, 1)->store().Dump();

  // Old leader dies; node 2 comes back cold and immediately campaigns,
  // winning with node 1's vote before node 1's own timeout fires.
  cluster.Crash(0);
  cluster.Recover(2);
  MutablePaxosAt(cluster, 2)->TriggerElection();
  cluster.RunFor(2 * kSecond);

  ASSERT_EQ(FindLeader(cluster, 3), 2u);
  const auto* new_leader = PaxosAt(cluster, 2);
  EXPECT_GE(new_leader->metrics().prefix_syncs, 1u);
  EXPECT_EQ(new_leader->store().Dump(), expect);
  EXPECT_TRUE(NoCommittedPrefixHole(cluster, 2));

  // And the new leader is actually serviceable.
  uint64_t s = prober->Put(2, "post", "election");
  cluster.RunFor(500 * kMillisecond);
  EXPECT_NE(prober->FindReply(s), nullptr);
  EXPECT_EQ(CheckLogConsistency(cluster, 3), "");
}

// The satellite-2 regression: snapshot-driven pruning drops a client's
// cached reply value but must keep its sequence floor, so a stale
// retried request is still deduplicated instead of double-applied.
TEST(RecoveryTest, PrunedClientRecordStillRejectsStaleRetry) {
  StorageBank bank;
  sim::Cluster cluster{sim::ClusterOptions{}};
  paxos::PaxosOptions opt;
  opt.compaction_window = 8;
  opt.snapshot_interval = 4;
  opt.client_record_horizon = 4;
  bank.push_back(std::make_unique<storage::MemStorage>());
  cluster.AddReplica(0,
                     harness::MakeReplica(PaxosSpec(1, opt), 0, 0, bank[0].get()));
  auto p0 = std::make_unique<Prober>();
  auto p1 = std::make_unique<Prober>();
  Prober* old_client = p0.get();
  Prober* busy_client = p1.get();
  cluster.AddClient(sim::Cluster::MakeClientId(0), std::move(p0));
  cluster.AddClient(sim::Cluster::MakeClientId(1), std::move(p1));
  cluster.Start();
  cluster.RunFor(50 * kMillisecond);

  // One early write from the old client...
  uint64_t first = old_client->Put(0, "first", "once");
  cluster.RunFor(50 * kMillisecond);
  ASSERT_NE(old_client->FindReply(first), nullptr);
  ASSERT_EQ(PaxosAt(cluster, 0)->store().VersionOf("first"), 1u);

  // ...then enough traffic from another client that snapshots cover the
  // old record past the horizon and prune its cached value.
  for (int i = 0; i < 40; ++i) {
    busy_client->Put(0, "busy" + std::to_string(i % 5), "x");
    cluster.RunFor(10 * kMillisecond);
  }
  cluster.RunFor(200 * kMillisecond);
  const auto* rep = PaxosAt(cluster, 0);
  ASSERT_GE(rep->metrics().client_records_pruned, 1u);

  // A stale retry of the pruned seq: must NOT re-propose or re-apply.
  const uint64_t proposals_before = rep->metrics().proposals;
  Command stale =
      Command::Put("first", "once", sim::Cluster::MakeClientId(0), first);
  old_client->Resend(0, stale);
  cluster.RunFor(100 * kMillisecond);

  EXPECT_EQ(rep->metrics().proposals, proposals_before);
  EXPECT_EQ(rep->store().VersionOf("first"), 1u);  // no double-apply
  // The retry is answered (dedup floor), though the cached value is gone.
  size_t retry_replies = 0;
  for (const auto& r : old_client->replies) {
    retry_replies += (r.seq == first && r.code == StatusCode::kOk);
  }
  EXPECT_EQ(retry_replies, 2u);
}

// Recovery paths must not introduce nondeterminism: two same-seed runs
// of a crash-with-disk schedule produce identical stores and metrics.
TEST(RecoveryTest, CrashWithDiskRecoveryIsDeterministic) {
  auto run = [](std::map<std::string, std::string>* dump,
                uint64_t* replayed) {
    StorageBank bank;
    sim::Cluster cluster{sim::ClusterOptions{}};
    paxos::PaxosOptions opt;
    opt.compaction_window = 16;
    opt.snapshot_interval = 8;
    Prober* prober = MakeDurableCluster(cluster, 3, bank, opt);
    cluster.Start();
    cluster.RunFor(100 * kMillisecond);
    for (int i = 0; i < 20; ++i) {
      prober->Put(0, "k" + std::to_string(i % 7), "v" + std::to_string(i));
      cluster.RunFor(15 * kMillisecond);
    }
    cluster.CrashWithDisk(1);
    cluster.RunFor(200 * kMillisecond);
    cluster.Recover(1);
    cluster.RunFor(1 * kSecond);
    *dump = PaxosAt(cluster, 1)->store().Dump();
    *replayed = PaxosAt(cluster, 1)->metrics().wal_replayed_records;
  };
  std::map<std::string, std::string> dump_a, dump_b;
  uint64_t replayed_a = 0, replayed_b = 0;
  run(&dump_a, &replayed_a);
  run(&dump_b, &replayed_b);
  EXPECT_EQ(dump_a, dump_b);
  EXPECT_EQ(replayed_a, replayed_b);
  EXPECT_GT(replayed_a, 0u);
}

}  // namespace
}  // namespace pig::test
