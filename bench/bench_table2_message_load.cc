// Reproduces Table 2: message load at leader and followers for 2..4 relay
// groups in a 9-node cluster, plus the Paxos row — analytical model vs
// simulator counters.
//
// Paper rows (N=9): r=2: Ml=6, Mf=3.5, 71%; r=3: 8/3.25/146%;
// r=4: 10/3/233%; Paxos(r=8): 18/2/800%.
#include <algorithm>
#include <cstdio>

#include "harness/experiment.h"
#include "model/bottleneck_model.h"

using namespace pig;
using namespace pig::harness;

int main() {
  const size_t n = 9;
  std::printf(
      "=== Table 2: message load per request, %zu-node cluster ===\n\n", n);
  std::printf(
      " groups |  Ml model |  Ml sim |  Mf model |  Mf sim | overhead "
      "model | overhead sim\n"
      " -------+-----------+---------+-----------+---------+---------------"
      "+-------------\n");
  auto rows = model::MessageLoadTable(n, {2, 3, 4});
  for (const auto& row : rows) {
    const bool is_paxos = row.relay_groups == n - 1;
    ExperimentConfig cfg;
    cfg.replica.protocol = is_paxos ? Protocol::kPaxos : Protocol::kPigPaxos;
    cfg.replica.num_replicas = n;
    cfg.replica.pig.num_relay_groups = row.relay_groups;
    cfg.num_clients = 4;
    cfg.warmup = 500 * kMillisecond;
    cfg.measure = 2 * kSecond;
    cfg.seed = 7;
    RunResult res = RunExperiment(cfg);
    double ml_sim = res.msgs_per_request[0];
    double mf_sim = 0;
    for (size_t i = 1; i < n; ++i) mf_sim += res.msgs_per_request[i];
    mf_sim /= static_cast<double>(n - 1);
    std::printf(
        " %6s | %9.2f | %7.2f | %9.2f | %7.2f | %12.0f%% | %11.0f%%\n",
        row.label.c_str(), row.load.leader, ml_sim, row.load.follower,
        mf_sim, row.load.LeaderOverheadPercent(),
        (ml_sim / std::max(mf_sim, 1e-9) - 1.0) * 100.0);
  }
  std::printf(
      "\nPaper Table 2:  r=2: 6/3.5/71%%  r=3: 8/3.25/146%%  r=4: "
      "10/3/233%%  Paxos: 18/2/800%%\n");
  return 0;
}
