// Scenario-engine example: a partitioned-WAN chaos schedule (region 2
// secedes, a region-1 node crashes, everything heals) run identically
// against classic Paxos, PigPaxos, and the Ring Paxos-style pipeline
// baseline, then reported side by side.
//
// The same ScenarioSpec type drives the conformance harness's scripted
// safety checks and bench_scenario_sweep's gated/full sweeps — this is
// the smallest end-to-end tour of it. Deterministic per seed.
#include <cstdio>

#include "harness/scenario.h"

using namespace pig;
using namespace pig::harness;

int main() {
  ScenarioSpec spec;
  spec.name = "wan-chaos-demo";
  spec.topology = Topology::kWanVaCaOr;
  spec.schedule = {
      PartitionEvent(500 * kMillisecond, {0, 0, 0, 0, 0, 0, 1, 1, 1}),
      CrashEvent(900 * kMillisecond, 4),
      HealEvent(1600 * kMillisecond),
      RecoverEvent(2000 * kMillisecond, 4),
      GraySlowEvent(2400 * kMillisecond, 7, /*start=*/true),
      GraySlowEvent(3200 * kMillisecond, 7, /*start=*/false),
  };

  std::printf(
      "9-node VA/CA/OR WAN; region 2 partitioned 0.5-1.6s, node 4 down\n"
      "0.9-2.0s, node 7 gray-slow 2.4-3.2s. Same seed for every row.\n\n");
  std::printf("%-9s %12s %9s %9s %11s %10s\n", "protocol", "tput(req/s)",
              "p50(ms)", "p99(ms)", "elections", "timeouts");
  for (Protocol proto :
       {Protocol::kPaxos, Protocol::kPigPaxos, Protocol::kRing}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = proto;
    cfg.replica.num_replicas = 9;
    cfg.replica.pig.num_relay_groups = 3;  // one per region (PigPaxos)
    cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
    cfg.scenario = spec;
    cfg.num_clients = 16;
    cfg.workload.read_ratio = 0.5;
    cfg.warmup = 200 * kMillisecond;
    cfg.measure = 3500 * kMillisecond;
    cfg.seed = 2026;
    RunResult res = RunExperiment(cfg);
    std::printf("%-9s %12.1f %9.2f %9.2f %11llu %10llu\n",
                ProtocolName(proto).c_str(), res.throughput, res.p50_ms,
                res.p99_ms,
                static_cast<unsigned long long>(res.elections_started),
                static_cast<unsigned long long>(res.timeouts));
  }
  std::printf(
      "\nFor the full comparative cross-product (quorums x relay groups x\n"
      "overlap x coalesce, JSON report):\n"
      "  ./bench_scenario_sweep --full-sweep=scenario_sweep.json\n");
  return 0;
}
