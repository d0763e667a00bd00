// Ablation for §4.2 (partial response collection): commit latency with
// sluggish followers, full-group waits vs threshold responses.
//
// Setup: 25-node PigPaxos, 2 relay groups of 12; one follower in EACH
// group is sluggish (+25 ms on every link). With the default wait-for-all
// policy, every aggregation waits ~50 ms for the sluggish member's round
// trip; with threshold g_i = 7 (sum(g_i) + leader covers the majority of
// 13) relays forward their first batch as soon as 7 responses are in,
// hiding the stragglers. Rounds where a sluggish node happens to be the
// relay (~1/12 per group) stay slow in both configurations; execution is
// in log order, so a few clients of pipelining partially re-exposes the
// stragglers via head-of-line blocking — we report 1 and 8 clients.
#include <cstdio>
#include <memory>

#include "client/closed_loop_client.h"
#include "harness/experiment.h"
#include "net/latency.h"

using namespace pig;
using namespace pig::harness;

namespace {

struct Outcome {
  double tput;
  double mean_ms;
  double p50_ms;
  double p99_ms;
  uint64_t early;
};

Outcome Run(size_t threshold, uint32_t clients) {
  constexpr size_t kNodes = 25;
  auto slow = std::make_shared<net::SluggishNodeLatency>(
      std::make_shared<net::LanLatency>(), 25 * kMillisecond);
  slow->MarkSluggish(12);  // in relay group 1 ({1..12})
  slow->MarkSluggish(24);  // in relay group 2 ({13..24})

  sim::ClusterOptions copt;
  copt.seed = 42;
  copt.network.latency = slow;
  sim::Cluster cluster(copt);

  ReplicaSpec spec;
  spec.protocol = Protocol::kPigPaxos;
  spec.num_replicas = kNodes;
  spec.pig.num_relay_groups = 2;
  spec.pig.relay_timeout = 200 * kMillisecond;  // long: thresholds must win
  spec.pig.group_response_threshold = threshold;
  for (NodeId i = 0; i < kNodes; ++i) {
    cluster.AddReplica(i, MakeReplica(spec, i));
  }

  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(1 * kSecond, 5 * kSecond);
  for (uint32_t i = 0; i < clients; ++i) {
    client::ClientConfig ccfg;
    ccfg.num_replicas = kNodes;
    cluster.AddClient(
        sim::Cluster::MakeClientId(i),
        std::make_unique<client::ClosedLoopClient>(ccfg, recorder));
  }
  cluster.Start();
  cluster.RunUntil(5 * kSecond);

  uint64_t early = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    early += static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(i))
                 ->relay_metrics()
                 .early_batches;
  }
  return Outcome{recorder->Throughput(), recorder->latency().MeanMillis(),
                 recorder->latency().QuantileMillis(0.5),
                 recorder->latency().QuantileMillis(0.99), early};
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation §4.2: partial response collection with sluggish "
      "followers ===\n25-node PigPaxos, 2 relay groups, one +25 ms node "
      "in each group.\n\n");
  std::printf(
      " threshold g_i | clients | tput(req/s) | mean(ms) | p50(ms) | "
      "p99(ms) | early batches\n"
      " --------------+---------+-------------+----------+---------+"
      "---------+--------------\n");
  for (uint32_t clients : {1u, 8u}) {
    for (size_t threshold : {size_t{0}, size_t{7}}) {
      Outcome o = Run(threshold, clients);
      std::printf(
          " %13zu | %7u | %11.1f | %8.3f | %7.3f | %7.3f | %13llu\n",
          threshold, clients, o.tput, o.mean_ms, o.p50_ms, o.p99_ms,
          static_cast<unsigned long long>(o.early));
    }
  }
  std::printf(
      "\ng_i=0 (paper default): every round waits for a sluggish "
      "member's ~50 ms round\ntrip. g_i=7 satisfies 2*g_i + 1 >= "
      "majority(13) and hides the stragglers except\nwhen one serves as "
      "relay (~1/12 per group); log-order execution re-exposes\nsome of "
      "that tail under pipelining.\n");
  return 0;
}
