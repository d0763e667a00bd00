// Geo-replication example (paper §6.4): a 9-node cluster spread over
// three regions (Virginia / California / Oregon), with one PigPaxos relay
// group per region. Shows commit latency from the leader's region and the
// cross-region message savings vs classic Paxos.
//
// This example runs on the deterministic simulator so that WAN latencies
// are reproducible.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

namespace {

void RunOne(Protocol proto) {
  ExperimentConfig cfg;
  cfg.replica.protocol = proto;
  cfg.replica.num_replicas = 9;
  cfg.replica.pig.num_relay_groups = 3;  // one per region
  cfg.scenario.topology = Topology::kWanVaCaOr;
  cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
  cfg.workload.read_ratio = 0.0;
  cfg.num_clients = 16;
  cfg.warmup = 1 * kSecond;
  cfg.measure = 4 * kSecond;
  cfg.seed = 2026;
  RunResult res = RunExperiment(cfg);

  double ops = res.throughput * ToSeconds(cfg.measure);
  std::printf(
      "%-9s  commit latency p50 %.1f ms / p99 %.1f ms, throughput %.0f "
      "req/s,\n           cross-region messages per write: %.1f\n",
      ProtocolName(proto).c_str(), res.p50_ms, res.p99_ms, res.throughput,
      static_cast<double>(res.cross_region_msgs) / ops);
}

}  // namespace

int main() {
  std::printf(
      "Geo-replicated KV store: 3 regions x 3 nodes, leader in Virginia, "
      "clients in Virginia.\nEvery write is replicated to all 9 replicas "
      "across the WAN.\n\n");
  RunOne(Protocol::kPaxos);
  std::printf("\n");
  RunOne(Protocol::kPigPaxos);
  std::printf(
      "\nWith one relay group per region, PigPaxos sends one WAN message "
      "per remote\nregion per write (plus one aggregated response back) — "
      "the 3x WAN traffic\nsavings of §6.4 — at the same commit "
      "latency, since the relay detour stays\ninside the remote region's "
      "LAN.\n");
  return 0;
}
