// Ablation for §4.1 (dynamic relay groups): static groups vs periodic
// random regrouping, in a healthy cluster and with one degraded group.
//
// Expectation: in a healthy cluster regrouping is neutral (relay choice
// is already random within each group); with a crashed follower, the
// failure keeps hitting the same group under static grouping, while
// reshuffling spreads the damage across groups (all groups occasionally
// inherit the dead node, none permanently).
#include <cstdio>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Ablation §4.1: dynamic relay regrouping, 25-node PigPaxos, 3 "
      "groups ===\n\n");
  std::printf(
      " reshuffle | crashed node | tput(req/s) | mean(ms) | p99(ms)\n"
      " ----------+--------------+-------------+----------+--------\n");
  for (bool crash : {false, true}) {
    for (TimeNs interval : {TimeNs{0}, 100 * kMillisecond}) {
      ExperimentConfig cfg;
      cfg.replica.protocol = Protocol::kPigPaxos;
      cfg.replica.num_replicas = 25;
      cfg.replica.pig.num_relay_groups = 3;
      cfg.replica.pig.reshuffle_interval = interval;
      cfg.num_clients = 128;
      cfg.seed = 42;
      if (crash) cfg.scenario.schedule = {CrashEvent(0, 24)};
      RunResult res = RunExperiment(cfg);
      std::printf(" %-9s | %-12s | %11.1f | %8.3f | %7.3f\n",
                  interval > 0 ? "100 ms" : "static",
                  crash ? "node 24" : "none", res.throughput, res.mean_ms,
                  res.p99_ms);
    }
  }
  return 0;
}
