// Reproduces Fig. 8: latency vs throughput on a 25-node LAN cluster —
// Paxos vs EPaxos vs PigPaxos (3 relay groups), 1000 keys, 50/50 r/w.
//
// Paper result: EPaxos saturates ~1000 req/s (conflict resolution drains
// every node), Paxos ~2000 req/s (leader bottleneck), PigPaxos scales to
// ~7000 req/s with ~30% higher base latency than Paxos.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 8: Latency vs Throughput, 25-node cluster "
      "(PigPaxos: 3 relay groups) ===\n"
      "Paper: EPaxos saturates ~1k req/s; Paxos ~2k req/s; PigPaxos ~7k "
      "req/s\nwith ~30%% higher low-load latency and little deterioration "
      "after.\n\n");

  const std::vector<size_t> loads = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};

  for (Protocol proto :
       {Protocol::kEPaxos, Protocol::kPaxos, Protocol::kPigPaxos}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = proto;
    cfg.replica.num_replicas = 25;
    cfg.replica.pig.num_relay_groups = 3;
    cfg.workload.read_ratio = 0.5;
    cfg.warmup = 1 * kSecond;
    cfg.measure = 3 * kSecond;
    cfg.seed = 42;
    auto points = LatencyThroughputSweep(cfg, loads);
    std::printf("%s\n", FormatSweep(ProtocolName(proto), points).c_str());
  }
  return 0;
}
