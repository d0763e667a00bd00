// Scenario-engine sweeps: WAN chaos schedules swept over
// {protocol x flexible-quorum x relay-groups x overlap x coalesce},
// including the Ring Paxos-style pipeline baseline.
//
// Two entry points:
//   * Google-benchmark rows (default): a smoke-sized sweep and a
//     fig8-shaped ring-baseline run, both pinned by scripts/bench_gate.py
//     so scenario throughput regressions fail CI like the fig7/fig8 rows.
//   * --full-sweep[=path]: the full comparative cross-product (20
//     configurations under identical seeds and an identical partitioned-
//     WAN schedule), written as one deterministic JSON report
//     (default scenario_sweep.json). Manual: too slow for the gate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "harness/scenario.h"

namespace pig {
namespace {

using harness::Protocol;
using harness::ScenarioSpec;
using harness::SweepAxes;

/// The partitioned-WAN schedule shared by the smoke and full sweeps:
/// region 2 leaves for 800 ms, a region-1 node crashes and recovers.
ScenarioSpec WanChaosSpec() {
  ScenarioSpec spec;
  spec.name = "wan-partition-sweep";
  spec.topology = harness::Topology::kWanVaCaOr;
  spec.schedule = {
      harness::PartitionEvent(300 * kMillisecond,
                              {0, 0, 0, 0, 0, 0, 1, 1, 1}),
      harness::CrashEvent(600 * kMillisecond, 4),
      harness::HealEvent(1100 * kMillisecond),
      harness::RecoverEvent(1400 * kMillisecond, 4),
  };
  return spec;
}

harness::ExperimentConfig SweepBase(TimeNs measure) {
  harness::ExperimentConfig cfg;
  cfg.replica.num_replicas = 9;
  cfg.num_clients = 24;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 200 * kMillisecond;
  cfg.measure = measure;
  cfg.seed = 42;
  return cfg;
}

// --- Gate rows -------------------------------------------------------------

/// Smoke-sized sweep: {PigPaxos, Ring} x {majority} under the WAN chaos
/// schedule. items/s = committed client commands per wall second across
/// the whole sweep.
void BM_ScenarioSweepSmoke(benchmark::State& state) {
  ScenarioSpec spec = WanChaosSpec();
  SweepAxes axes;
  axes.protocols = {Protocol::kPigPaxos, Protocol::kRing};
  axes.quorums = {{0, 0}};
  axes.relay_groups = {3};
  uint64_t completed = 0;
  harness::SweepReport report;
  for (auto _ : state) {
    report = RunScenarioSweep(spec, axes, SweepBase(600 * kMillisecond));
    for (const harness::SweepRow& row : report.rows) {
      completed += row.result.completed;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["rows"] = static_cast<double>(report.rows.size());
  for (const harness::SweepRow& row : report.rows) {
    state.counters[row.label + ".sim_req_s"] = row.result.throughput;
  }
}
BENCHMARK(BM_ScenarioSweepSmoke)->Unit(benchmark::kMillisecond);

/// Fig8-shaped ring baseline: 25-node LAN ring at saturating load, for a
/// fair throughput comparison against BM_BatchPipelineFig8 (PigPaxos) in
/// bench_batching_pipeline.
void BM_RingFig8(benchmark::State& state) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = Protocol::kRing;
  cfg.replica.num_replicas = 25;
  cfg.num_clients = 128;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 400 * kMillisecond;
  cfg.seed = 42;
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["sim_req_s"] = r.throughput;
  state.counters["p99_ms"] = r.p99_ms;
  state.counters["ring_timeouts"] = static_cast<double>(r.ring_timeouts);
}
BENCHMARK(BM_RingFig8)->Unit(benchmark::kMillisecond);

/// Adversarial delivery faults on the fig8-shaped WAN run: duplication,
/// reorder jitter, a one-way partition, and clock skew composed over one
/// measured PigPaxos run. Gated on sim_completed — the virtual-time
/// completion count is deterministic per seed, so the gate catches a
/// protocol change that loses (or double-counts) commands under chaos
/// without ever comparing wall time.
void BM_AdversarialSweep(benchmark::State& state) {
  ScenarioSpec spec;
  spec.name = "adversarial-sweep";
  spec.topology = harness::Topology::kWanVaCaOr;
  spec.schedule = {
      harness::DuplicateLinkEvent(300 * kMillisecond, kInvalidNode,
                                  kInvalidNode, 0.3),
      harness::ReorderLinkEvent(300 * kMillisecond, kInvalidNode,
                                kInvalidNode, 5 * kMillisecond),
      harness::OneWayPartitionEvent(500 * kMillisecond, 7, kInvalidNode,
                                    true),
      harness::ClockSkewEvent(600 * kMillisecond, 3, 1.5),
      harness::OneWayPartitionEvent(900 * kMillisecond, 7, kInvalidNode,
                                    false),
      harness::ClockSkewEvent(1000 * kMillisecond, 3, 1.0),
  };
  harness::ExperimentConfig cfg = SweepBase(800 * kMillisecond);
  cfg.replica.protocol = Protocol::kPigPaxos;
  cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
  cfg.scenario = spec;
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["sim_completed"] = static_cast<double>(r.completed);
  state.counters["sim_req_s"] = r.throughput;
  state.counters["timeouts"] = static_cast<double>(r.timeouts);
}
BENCHMARK(BM_AdversarialSweep)->Unit(benchmark::kMillisecond);

// --- Manual full sweep -----------------------------------------------------

int RunFullSweep(const std::string& path) {
  ScenarioSpec spec = WanChaosSpec();
  SweepAxes axes;
  axes.protocols = {Protocol::kPaxos, Protocol::kPigPaxos, Protocol::kRing};
  // (8,2): phase-2 commits stay inside the leader's region, the paper's
  // flexible-quorum WAN trade (elections get rare but need 8 promises).
  axes.quorums = {{0, 0}, {8, 2}};
  axes.relay_groups = {2, 3};
  axes.overlaps = {0, 1};
  axes.coalesce = {1, 4};
  std::printf("running full %s sweep (2 + 2 + 16 configs, seed 42)...\n",
              spec.name.c_str());
  harness::SweepReport report =
      RunScenarioSweep(spec, axes, SweepBase(3 * kSecond));
  std::printf("%-28s %12s %9s %9s\n", "config", "tput(req/s)", "p99(ms)",
              "completed");
  for (const harness::SweepRow& row : report.rows) {
    std::printf("%-28s %12.1f %9.3f %9llu\n", row.label.c_str(),
                row.result.throughput, row.result.p99_ms,
                static_cast<unsigned long long>(row.result.completed));
  }
  Status s = WriteSweepReportJson(path, report);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu configs)\n", path.c_str(), report.rows.size());
  return 0;
}

}  // namespace
}  // namespace pig

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full-sweep" || arg.rfind("--full-sweep=", 0) == 0) {
      std::string path = "scenario_sweep.json";
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) path = arg.substr(eq + 1);
      return pig::RunFullSweep(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
