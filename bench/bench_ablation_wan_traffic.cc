// Ablation for §6.4 (cross-region bandwidth): counts WAN messages per
// committed write for Paxos vs PigPaxos on a 3x3 deployment with one
// relay group per region.
//
// Paper's claim: with 3 regions x 3 nodes, each write costs PigPaxos 2
// cross-WAN fan-out messages vs 6 for Paxos — 3x less WAN traffic (and
// cloud egress cost). Counting fan-in too, the ratio stays 3x.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Ablation §6.4: cross-region WAN traffic, 9 nodes in 3 regions "
      "===\n\n");
  std::printf(
      " protocol  | committed ops | WAN msgs | WAN msgs/op | WAN "
      "bytes/op\n"
      " ----------+---------------+----------+-------------+-------------\n");
  double per_op[2] = {0, 0};
  int idx = 0;
  for (Protocol proto : {Protocol::kPaxos, Protocol::kPigPaxos}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = proto;
    cfg.replica.num_replicas = 9;
    cfg.replica.pig.num_relay_groups = 3;
    cfg.scenario.topology = Topology::kWanVaCaOr;
    cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
    cfg.workload.read_ratio = 0.0;  // writes only
    cfg.num_clients = 32;
    cfg.warmup = 2 * kSecond;
    cfg.measure = 5 * kSecond;
    cfg.seed = 42;
    RunResult res = RunExperiment(cfg);
    double ops = res.throughput * ToSeconds(cfg.measure);
    per_op[idx++] = static_cast<double>(res.cross_region_msgs) / ops;
    std::printf(" %-9s | %13.0f | %8llu | %11.2f | %12.0f\n",
                ProtocolName(proto).c_str(), ops,
                static_cast<unsigned long long>(res.cross_region_msgs),
                static_cast<double>(res.cross_region_msgs) / ops, 0.0);
  }
  std::printf(
      "\nWAN messages per op: Paxos %.1f vs PigPaxos %.1f (%.1fx "
      "reduction).\nPaper §6.4: 6 vs 2 fan-out messages per write = 3x "
      "WAN traffic savings.\n",
      per_op[0], per_op[1], per_op[0] / per_op[1]);
  return 0;
}
