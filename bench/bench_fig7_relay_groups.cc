// Reproduces Fig. 7: maximum throughput of a 25-node PigPaxos (single
// relay layer) as the number of relay groups varies from 2 to 6.
//
// Paper result: throughput decreases monotonically with more groups; the
// 2-group configuration is best (~10k req/s), ~2x the 6-group one. The
// sqrt(N)=5 "balanced" heuristic performs badly.
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 7: max throughput vs number of relay groups, 25-node "
      "PigPaxos ===\nPaper: best at 2 groups (~10k req/s), monotonically "
      "decreasing to ~5.5k at 6\ngroups — the leader bottleneck grows "
      "linearly with groups (Ml = 2r + 2).\n\n");
  std::printf(" groups | max throughput (req/s) | leader CPU util\n");
  std::printf(" -------+------------------------+----------------\n");

  double best = 0;
  size_t best_r = 0;
  for (size_t groups = 2; groups <= 6; ++groups) {
    ExperimentConfig cfg;
    cfg.replica.protocol = Protocol::kPigPaxos;
    cfg.replica.num_replicas = 25;
    cfg.replica.pig.num_relay_groups = groups;
    cfg.seed = 42;
    cfg.num_clients = 512;  // saturating load
    cfg.warmup = 1 * kSecond;
    cfg.measure = 3 * kSecond;
    RunResult res = RunExperiment(cfg);
    std::printf(" %6zu | %22.1f | %14.2f\n", groups, res.throughput,
                res.cpu_utilization.empty() ? 0 : res.cpu_utilization[0]);
    if (res.throughput > best) {
      best = res.throughput;
      best_r = groups;
    }
  }
  std::printf(
      "\nBest configuration: %zu relay groups (%.0f req/s) — paper also "
      "finds 2 groups\nbest, because Ml = 2r + 2 is minimized.\n",
      best_r, best);
  return 0;
}
