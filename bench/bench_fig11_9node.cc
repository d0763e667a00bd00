// Reproduces Fig. 11: latency vs throughput on a 9-node cluster, PigPaxos
// with 2 and 3 relay groups vs Paxos.
//
// Paper result: both PigPaxos configurations beat Paxos on throughput
// (up to ~57% better, §6.2); the 2-group configuration edges out the
// 3-group one; Paxos's latency advantage shrinks vs the 5-node case.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 11: Latency vs Throughput, 9-node cluster ===\n"
      "Paper: PigPaxos with 2 and 3 relay groups both outscale Paxos; "
      "2 groups best.\n\n");

  const std::vector<size_t> loads = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};

  {
    ExperimentConfig cfg;
    cfg.replica.protocol = Protocol::kPaxos;
    cfg.replica.num_replicas = 9;
    cfg.seed = 42;
    auto points = LatencyThroughputSweep(cfg, loads);
    std::printf("%s\n", FormatSweep("Paxos", points).c_str());
  }
  for (size_t groups : {2, 3}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = Protocol::kPigPaxos;
    cfg.replica.num_replicas = 9;
    cfg.replica.pig.num_relay_groups = groups;
    cfg.seed = 42;
    auto points = LatencyThroughputSweep(cfg, loads);
    std::printf("%s\n",
                FormatSweep("PigPaxos " + std::to_string(groups) +
                                " relay groups",
                            points)
                    .c_str());
  }
  return 0;
}
