// Multi-group keyspace sharding, fig8-shaped (ROADMAP scale-out item).
//
// One PigPaxos leader caps total throughput no matter how good the relay
// tree is; sharding the keyspace across independent consensus groups
// (one replica per group per node, leaders spread across nodes) is the
// way past that. This bench sweeps groups in {1, 4, 16} on the 25-node
// fig8-shape cluster under identical seeds and workload; the sim_req_s
// counter (virtual-time throughput, fully deterministic per seed) is the
// gated number — the bench gate requires groups:4 >= 3x groups:1 and
// pins every row against bench_baseline.json. Clients are scaled with
// load capacity: a single closed-loop fleet would saturate at one
// group's ceiling and hide the scaling.
#include <benchmark/benchmark.h>

#include "harness/experiment.h"

namespace pig {
namespace {

harness::ExperimentConfig ShardedConfig(size_t num_groups) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 25;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.replica.num_groups = num_groups;
  // Enough closed-loop clients to saturate 16 groups; identical offered
  // load across rows so the sweep isolates the group count.
  cfg.num_clients = 2048;
  cfg.workload.read_ratio = 0.5;
  // Production posture from PR 3: leader batching + commit pipelining +
  // relay uplink coalescing. Amortizing the per-slot fan-out is also
  // what keeps follower-side replication work (paid by every node for
  // every group) from eating the multi-leader win.
  cfg.replica.paxos.batch_size = 16;
  cfg.replica.paxos.pipeline_depth = 8;
  cfg.replica.pig.uplink_coalesce_max = 8;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 400 * kMillisecond;
  cfg.seed = 42;
  return cfg;
}

void BM_ShardedFig8Shape(benchmark::State& state) {
  auto cfg = ShardedConfig(static_cast<size_t>(state.range(0)));
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["sim_req_s"] = r.throughput;
  state.counters["p99_ms"] = r.p99_ms;
  state.counters["timeouts"] = static_cast<double>(r.timeouts);
  // Group balance: min/max in-window completions across groups. A badly
  // skewed hash would show up here long before it sinks the ratio gate.
  uint64_t min_g = ~0ull, max_g = 0;
  for (uint64_t c : r.per_group_completed) {
    min_g = std::min(min_g, c);
    max_g = std::max(max_g, c);
  }
  state.counters["group_min"] = static_cast<double>(min_g);
  state.counters["group_max"] = static_cast<double>(max_g);
}
BENCHMARK(BM_ShardedFig8Shape)
    ->ArgName("groups")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pig

BENCHMARK_MAIN();
