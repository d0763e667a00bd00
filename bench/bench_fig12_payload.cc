// Reproduces Fig. 12a/12b: maximum throughput at payload sizes 8..1280
// bytes on 25-node clusters (PigPaxos: 3 relay groups), write-only
// workload, 150 clients.
//
// Paper result: both protocols degrade similarly in *relative* terms as
// payloads grow (Fig. 12b: neither dips below ~0.9 of its own peak), while
// PigPaxos's absolute throughput stays a large multiple of Paxos's
// (Fig. 12a) — the leader serializes per-byte work on every follower link
// in Paxos but on only r relay links in PigPaxos.
#include <cstdio>
#include <vector>

#include "harness/experiment.h"

using namespace pig;
using namespace pig::harness;

int main() {
  std::printf(
      "=== Fig. 12: max throughput vs payload size, 25 nodes, write-only, "
      "150 clients ===\n\n");
  const std::vector<size_t> payloads = {8, 16, 64, 128, 256, 512, 1024,
                                        1280};

  std::printf(
      " payload(B) | Paxos tput | Pig tput  | Paxos norm | Pig norm\n"
      " -----------+------------+-----------+------------+---------\n");
  std::vector<double> paxos_tput, pig_tput;
  for (size_t payload : payloads) {
    for (Protocol proto : {Protocol::kPaxos, Protocol::kPigPaxos}) {
      ExperimentConfig cfg;
      cfg.replica.protocol = proto;
      cfg.replica.num_replicas = 25;
      cfg.replica.pig.num_relay_groups = 3;
      cfg.num_clients = 150;           // paper: 150 clients on 3 VMs
      cfg.workload.read_ratio = 0.0;   // write-only
      cfg.workload.payload_size = payload;
      cfg.seed = 42;
      RunResult res = RunExperiment(cfg);
      (proto == Protocol::kPaxos ? paxos_tput : pig_tput)
          .push_back(res.throughput);
    }
  }
  double paxos_max = *std::max_element(paxos_tput.begin(), paxos_tput.end());
  double pig_max = *std::max_element(pig_tput.begin(), pig_tput.end());
  for (size_t i = 0; i < payloads.size(); ++i) {
    std::printf(" %10zu | %10.1f | %9.1f | %10.3f | %8.3f\n", payloads[i],
                paxos_tput[i], pig_tput[i], paxos_tput[i] / paxos_max,
                pig_tput[i] / pig_max);
  }
  std::printf(
      "\nPaper Fig. 12b: neither protocol drops below ~0.9 of its own "
      "peak across\n8..1280B; Fig. 12a: PigPaxos stays several times "
      "above Paxos throughout.\n");
  return 0;
}
