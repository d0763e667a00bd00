// Reproduces Table 1: message load at leader and followers for different
// relay-group counts in a 25-node cluster — analytical model (§6.1
// formulas 1-3) cross-checked against the simulator's per-node message
// counters.
//
// Paper rows (N=25): r=2: Ml=6, Mf=3.83, 56%; r=3: 8/3.75/113%;
// r=4: 10/3.67/172%; r=5: 12/3.58/234%; r=6: 14/3.50/300%;
// Paxos(r=24): 50/2/2400%.
#include <algorithm>
#include <cstdio>

#include "harness/experiment.h"
#include "model/bottleneck_model.h"

using namespace pig;
using namespace pig::harness;

namespace {

/// Measured (leader, mean-follower) messages per request from a short
/// simulated run with heartbeats/elections quiesced.
std::pair<double, double> MeasuredLoad(Protocol proto, size_t n, size_t r) {
  ExperimentConfig cfg;
  cfg.replica.protocol = proto;
  cfg.replica.num_replicas = n;
  cfg.replica.pig.num_relay_groups = r;
  cfg.num_clients = 4;  // light load: per-request accounting, no queueing
  cfg.warmup = 500 * kMillisecond;
  cfg.measure = 2 * kSecond;
  cfg.seed = 7;
  RunResult res = RunExperiment(cfg);
  double leader = res.msgs_per_request.empty() ? 0 : res.msgs_per_request[0];
  double followers = 0;
  for (size_t i = 1; i < res.msgs_per_request.size(); ++i) {
    followers += res.msgs_per_request[i];
  }
  followers /= static_cast<double>(n - 1);
  return {leader, followers};
}

}  // namespace

int main() {
  const size_t n = 25;
  std::printf(
      "=== Table 1: message load per request, %zu-node cluster ===\n"
      "model = paper formulas (1)-(3); sim = measured from network "
      "counters\n(sim includes heartbeats/log-sync, so slightly above "
      "model)\n\n",
      n);
  std::printf(
      " groups |  Ml model |  Ml sim |  Mf model |  Mf sim | overhead "
      "model | overhead sim\n"
      " -------+-----------+---------+-----------+---------+---------------"
      "+-------------\n");

  auto rows = model::MessageLoadTable(n, {2, 3, 4, 5, 6});
  for (const auto& row : rows) {
    const bool is_paxos = row.relay_groups == n - 1;
    auto [ml_sim, mf_sim] =
        MeasuredLoad(is_paxos ? Protocol::kPaxos : Protocol::kPigPaxos, n,
                     row.relay_groups);
    double overhead_sim = (ml_sim / std::max(mf_sim, 1e-9) - 1.0) * 100.0;
    std::printf(
        " %6s | %9.2f | %7.2f | %9.2f | %7.2f | %12.0f%% | %11.0f%%\n",
        row.label.c_str(), row.load.leader, ml_sim, row.load.follower,
        mf_sim, row.load.LeaderOverheadPercent(), overhead_sim);
  }
  std::printf(
      "\nPaper Table 1:  r=2: 6/3.83/56%%  r=3: 8/3.75/113%%  r=4: "
      "10/3.67/172%%\n                r=5: 12/3.58/234%%  r=6: 14/3.50/300%%"
      "  Paxos: 50/2/2400%%\n");
  return 0;
}
