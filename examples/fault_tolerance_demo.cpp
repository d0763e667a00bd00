// Fault-tolerance walkthrough (paper §3.4, Fig. 5): follower failure,
// relay failure, leader failure, and recovery with snapshot catch-up —
// narrated on the deterministic simulator.
#include <cstdio>

#include "client/closed_loop_client.h"
#include "harness/replica_spec.h"
#include "pigpaxos/replica.h"
#include "sim/cluster.h"

using namespace pig;

namespace {

const pigpaxos::PigPaxosReplica* Pig(sim::Cluster& cluster, NodeId id) {
  return static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(id));
}

NodeId CurrentLeader(sim::Cluster& cluster, size_t n) {
  for (NodeId i = 0; i < n; ++i) {
    if (cluster.IsAlive(i) && Pig(cluster, i)->IsLeader()) return i;
  }
  return kInvalidNode;
}

}  // namespace

int main() {
  constexpr size_t kNodes = 9;
  sim::ClusterOptions copt;
  copt.seed = 11;
  sim::Cluster cluster(copt);

  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kPigPaxos;
  spec.num_replicas = kNodes;
  spec.pig.num_relay_groups = 2;
  spec.pig.relay_timeout = 20 * kMillisecond;
  // §4.2 partial responses: with g_i = 3 per group (2*3 + leader >= the
  // majority of 5), commits do not wait out the relay timeout even when
  // every group contains a crashed member.
  spec.pig.group_response_threshold = 3;
  for (NodeId id = 0; id < kNodes; ++id) {
    cluster.AddReplica(id, harness::MakeReplica(spec, id));
  }

  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(0, 60 * kSecond);
  for (uint32_t i = 0; i < 8; ++i) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = kNodes;
    cluster.AddClient(
        sim::Cluster::MakeClientId(i),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();

  cluster.RunUntil(1 * kSecond);
  std::printf("[t=1s] leader is node %u; %llu ops committed so far\n",
              CurrentLeader(cluster, kNodes),
              (unsigned long long)recorder->completed());

  // --- Follower failure (Fig. 5a) --------------------------------------
  cluster.Crash(8);
  cluster.RunUntil(3 * kSecond);
  uint64_t timeouts = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    if (cluster.IsAlive(i)) {
      timeouts += Pig(cluster, i)->relay_metrics().relay_timeouts;
    }
  }
  std::printf(
      "[t=3s] follower 8 crashed at t=1s: relays timed out %llu times "
      "but commits\n       continued (%llu ops) — healthy groups still "
      "form the majority\n",
      (unsigned long long)timeouts,
      (unsigned long long)recorder->completed());

  // --- Leader failure -----------------------------------------------------
  NodeId old_leader = CurrentLeader(cluster, kNodes);
  cluster.Crash(old_leader);
  cluster.RunUntil(6 * kSecond);
  NodeId new_leader = CurrentLeader(cluster, kNodes);
  std::printf(
      "[t=6s] leader %u crashed at t=3s: node %u won the phase-1 election "
      "(through\n       the relay tree) and took over; %llu ops committed\n",
      old_leader, new_leader, (unsigned long long)recorder->completed());

  // --- Recovery with catch-up ---------------------------------------------
  cluster.Recover(8);
  cluster.Recover(old_leader);
  cluster.RunUntil(10 * kSecond);
  std::printf(
      "[t=10s] nodes %u and 8 recovered; leader is still node %u; total "
      "%llu ops\n",
      old_leader, new_leader, (unsigned long long)recorder->completed());

  // Verify convergence: all live replicas agree on executed state size.
  const auto& leader_store = Pig(cluster, new_leader)->store();
  size_t caught_up = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    if (Pig(cluster, i)->store().applied_count() > 0 &&
        Pig(cluster, i)->store().Dump() == leader_store.Dump()) {
      caught_up++;
    }
  }
  std::printf(
      "[t=10s] %zu/%zu replicas hold a state identical to the leader's "
      "(log sync +\n        snapshot install brought the recovered nodes "
      "back)\n",
      caught_up, kNodes);
  std::printf("fault tolerance demo OK\n");
  return caught_up >= kNodes - 1 ? 0 : 1;
}
