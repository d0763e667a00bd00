// Reproduces Fig. 10: latency vs throughput on a small 5-node cluster;
// PigPaxos runs 2 relay groups.
//
// Paper result: Paxos keeps its lower latency for longer but PigPaxos
// still reaches higher maximum throughput (it sends 2 messages per round
// where Paxos sends 4); EPaxos again suffers from conflicts.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 10: Latency vs Throughput, 5-node cluster (PigPaxos: 2 "
      "relay groups) ===\nPaper: Paxos holds low latency longer; PigPaxos "
      "still scales to higher\nthroughput; EPaxos conflicts keep it "
      "lowest.\n\n");

  const std::vector<size_t> loads = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  for (Protocol proto :
       {Protocol::kEPaxos, Protocol::kPaxos, Protocol::kPigPaxos}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = proto;
    cfg.replica.num_replicas = 5;
    cfg.replica.pig.num_relay_groups = 2;
    cfg.seed = 42;
    auto points = LatencyThroughputSweep(cfg, loads);
    std::printf("%s\n", FormatSweep(ProtocolName(proto), points).c_str());
  }
  return 0;
}
