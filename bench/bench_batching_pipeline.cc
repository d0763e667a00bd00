// Leader/relay command batching + commit pipelining, fig8-shaped.
//
// Runs the 25-node PigPaxos configuration of Fig. 8 at saturating load
// with the batching engine swept over {batch_size x pipeline_depth} (and
// relay uplink coalescing following the batch setting), plus a Paxos
// 5-node control. items/s is committed client commands per wall second;
// the sim_req_s counter reports throughput in *virtual* time, which is
// the paper-comparable number (batch=8/depth=8 must beat batch=1/depth=1
// by >= 1.3x; the bench gate pins both configurations).
#include <benchmark/benchmark.h>

#include "harness/experiment.h"

namespace pig {
namespace {

harness::ExperimentConfig BaseConfig(harness::Protocol proto,
                                     size_t num_replicas,
                                     size_t batch, size_t depth) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = proto;
  cfg.replica.num_replicas = num_replicas;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.num_clients = 128;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 400 * kMillisecond;
  cfg.seed = 42;
  cfg.replica.paxos.batch_size = batch;
  cfg.replica.paxos.pipeline_depth = depth;
  // Relay uplink coalescing rides along with batching: pipelined slots
  // are what give a relay several finished rounds to bundle.
  cfg.replica.pig.uplink_coalesce_max = batch > 1 ? 4 : 1;
  return cfg;
}

void ReportRun(benchmark::State& state, const harness::RunResult& r,
               uint64_t completed) {
  state.SetItemsProcessed(static_cast<int64_t>(completed));
  state.counters["sim_req_s"] = r.throughput;
  state.counters["mean_batch"] = r.mean_batch_size;
  state.counters["p99_ms"] = r.p99_ms;
  state.counters["uplink_bundles"] = static_cast<double>(r.uplink_bundles);
}

void BM_BatchPipelineFig8(benchmark::State& state) {
  auto cfg = BaseConfig(harness::Protocol::kPigPaxos, 25,
                        static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)));
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  ReportRun(state, r, completed);
}
BENCHMARK(BM_BatchPipelineFig8)
    ->Args({1, 1})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Args({8, 16})
    ->Unit(benchmark::kMillisecond);

void BM_BatchPipelinePaxos5(benchmark::State& state) {
  auto cfg = BaseConfig(harness::Protocol::kPaxos, 5,
                        static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(1)));
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  ReportRun(state, r, completed);
}
BENCHMARK(BM_BatchPipelinePaxos5)
    ->Args({1, 1})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

// Uplink-coalescing ablation: batching fixed at 8/8, bundle size swept.
void BM_UplinkCoalesce(benchmark::State& state) {
  auto cfg = BaseConfig(harness::Protocol::kPigPaxos, 25, 8, 8);
  cfg.replica.pig.uplink_coalesce_max = static_cast<size_t>(state.range(0));
  uint64_t completed = 0;
  harness::RunResult r;
  for (auto _ : state) {
    r = harness::RunExperiment(cfg);
    completed += r.completed;
  }
  ReportRun(state, r, completed);
}
BENCHMARK(BM_UplinkCoalesce)->Arg(1)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace pig

BENCHMARK_MAIN();
