// Relay-group tuning assistant: given a cluster size, sweeps the relay
// group count on the simulator and reports measured throughput next to
// the paper's analytical prediction (Ml = 2r + 2), writing a CSV for
// plotting. Usage: relay_tuning [num_replicas]
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.h"
#include "harness/report.h"
#include "model/bottleneck_model.h"

using namespace pig;
using namespace pig::harness;

int main(int argc, char** argv) {
  size_t n = 13;
  if (argc > 1) n = static_cast<size_t>(std::atoi(argv[1]));
  if (n < 3 || n > 101) {
    std::fprintf(stderr, "num_replicas must be in [3, 101]\n");
    return 1;
  }

  std::printf(
      "Tuning relay groups for a %zu-node PigPaxos deployment.\n"
      "Analytical leader load Ml = 2r + 2 (paper §6.1); measured max "
      "throughput below.\n\n",
      n);
  std::printf(
      " groups | Ml (model) | predicted rel. tput | measured req/s\n"
      " -------+------------+---------------------+---------------\n");

  std::vector<LoadPoint> csv_points;
  double best_tput = 0;
  size_t best_r = 0;
  const size_t max_groups = std::min<size_t>(6, n - 1);
  for (size_t r = 1; r <= max_groups; ++r) {
    ExperimentConfig cfg;
    cfg.replica.protocol = Protocol::kPigPaxos;
    cfg.replica.num_replicas = n;
    cfg.replica.pig.num_relay_groups = r;
    cfg.num_clients = 256;
    cfg.warmup = 500 * kMillisecond;
    cfg.measure = 2 * kSecond;
    cfg.seed = 123;
    RunResult res = RunExperiment(cfg);
    auto load = model::PigPaxosLoad(n, r);
    std::printf(" %6zu | %10.0f | %19.2f | %14.1f\n", r, load.leader,
                6.0 / load.leader, res.throughput);
    csv_points.push_back(LoadPoint{r, res.throughput, res.mean_ms,
                                   res.p50_ms, res.p99_ms});
    if (res.throughput > best_tput) {
      best_tput = res.throughput;
      best_r = r;
    }
  }

  Status s = WriteSweepCsv("relay_tuning.csv",
                           "pigpaxos-" + std::to_string(n), csv_points);
  std::printf(
      "\nRecommendation: %zu relay group(s) (%.0f req/s max throughput)."
      "\n%s\nNote: r=1 maximizes raw throughput but cannot tolerate a "
      "relay-group outage\n(§6.2) — prefer r=2 for production.\n",
      best_r, best_tput,
      s.ok() ? "Wrote relay_tuning.csv for plotting."
             : s.ToString().c_str());
  return 0;
}
