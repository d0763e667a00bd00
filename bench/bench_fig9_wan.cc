// Reproduces Fig. 9: latency vs throughput on a 15-node WAN cluster
// spread over Virginia, California and Oregon; one relay group per region
// and the leader in Virginia.
//
// Paper result: latency is dominated by cross-region RTT, so Paxos and
// PigPaxos are indistinguishable at low load; PigPaxos sustains much
// higher throughput before latency degrades.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 9: Latency vs Throughput, 15-node WAN cluster "
      "(VA/CA/OR) ===\nPaper: both protocols sit at the WAN latency floor "
      "at low load; Paxos\nsaturates near 2k req/s while PigPaxos keeps "
      "the floor beyond 5k req/s.\n\n");

  const std::vector<size_t> loads = {8, 16, 32, 64, 128, 256, 512, 1024};
  for (Protocol proto : {Protocol::kPaxos, Protocol::kPigPaxos}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = proto;
    cfg.replica.num_replicas = 15;
    cfg.replica.pig.num_relay_groups = 3;  // one per region
    cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
    cfg.scenario.topology = Topology::kWanVaCaOr;
    cfg.seed = 42;
    cfg.warmup = 2 * kSecond;
    cfg.measure = 4 * kSecond;
    auto points = LatencyThroughputSweep(cfg, loads);
    std::printf("%s\n", FormatSweep(ProtocolName(proto), points).c_str());
  }
  return 0;
}
