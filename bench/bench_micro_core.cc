// Micro-benchmarks (google-benchmark) for the hot paths of the substrate:
// codec round trips, message encode, scheduler throughput, network
// accounting, cluster end-to-end event rate, histogram recording, RNG,
// and relay-group planning.
//
// The subset pinned by scripts/bench_gate.py (scheduler churn/cancel,
// network transfer, fig8-style cluster events) guards against hot-path
// regressions; keep those names and workload shapes stable.
#include <benchmark/benchmark.h>

#include "common/codec.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "paxos/messages.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/relay_groups.h"
#include "sim/scheduler.h"

namespace pig {
namespace {

void BM_CodecEncodeP2a(benchmark::State& state) {
  paxos::P2a msg;
  msg.ballot = Ballot(7, 3);
  msg.slot = 123456;
  msg.command = Command::Put("key12345", std::string(state.range(0), 'v'),
                             kFirstClientId, 42);
  msg.commit_index = 123455;
  for (auto _ : state) {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(msg.type()));
    msg.EncodeBody(enc);
    benchmark::DoNotOptimize(enc.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(msg.WireSize()));
}
BENCHMARK(BM_CodecEncodeP2a)->Arg(8)->Arg(128)->Arg(1024);

void BM_CodecRoundTripP2a(benchmark::State& state) {
  paxos::RegisterPaxosMessages();
  paxos::P2a msg;
  msg.ballot = Ballot(7, 3);
  msg.slot = 123456;
  msg.command = Command::Put("key12345", std::string(64, 'v'),
                             kFirstClientId, 42);
  auto wire = EncodeMessage(msg);
  for (auto _ : state) {
    MessagePtr out;
    Status s = DecodeMessage(wire, &out);
    benchmark::DoNotOptimize(s.ok());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CodecRoundTripP2a);

void BM_RelayEnvelopeRoundTrip(benchmark::State& state) {
  pigpaxos::RegisterPigPaxosMessages();
  auto inner = std::make_shared<paxos::P2a>();
  inner->ballot = Ballot(7, 3);
  inner->slot = 99;
  inner->command = Command::Put("key", "value", kFirstClientId, 1);
  pigpaxos::RelayRequest req;
  req.relay_id = 12345;
  req.origin = 0;
  for (NodeId n = 1; n <= static_cast<NodeId>(state.range(0)); ++n) {
    req.members.push_back(n);
  }
  req.inner = inner;
  auto wire = EncodeMessage(req);
  for (auto _ : state) {
    MessagePtr out;
    Status s = DecodeMessage(wire, &out);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_RelayEnvelopeRoundTrip)->Arg(4)->Arg(12);

void BM_SchedulerChurn(benchmark::State& state) {
  sim::Scheduler sched;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sched.ScheduleAfter(i, []() {});
    }
    sched.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerChurn);

// Schedule/run churn while `depth` far-future events sit in the heap —
// the steady state of a busy cluster (every node keeps timers pending).
void BM_SchedulerChurnAtDepth(benchmark::State& state) {
  sim::Scheduler sched;
  const int64_t depth = state.range(0);
  const TimeNs far = TimeNs{1} << 40;  // never reached below
  for (int64_t i = 0; i < depth; ++i) {
    sched.ScheduleAt(far + i, []() {});
  }
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sched.ScheduleAfter(i, []() {});
    }
    sched.RunFor(64);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerChurnAtDepth)->Arg(256)->Arg(4096);

// Heartbeat/ack-watch pattern: most timers are canceled before firing.
void BM_SchedulerCancelHeavy(benchmark::State& state) {
  sim::Scheduler sched;
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sched.ScheduleAfter(1000 + i, []() {}));
    }
    for (int i = 0; i < 64; ++i) {
      if (i % 8 != 0) sched.Cancel(ids[static_cast<size_t>(i)]);
    }
    sched.RunFor(2000);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SchedulerCancelHeavy);

// Per-message fabric bookkeeping: fate decision + both stats sides.
void BM_NetworkTransfer(benchmark::State& state) {
  net::NetworkOptions opt;
  opt.latency = std::make_shared<net::LanLatency>();
  net::Network network(opt);
  NodeId peer = 0;
  for (auto _ : state) {
    NodeId to = 1 + (peer++ % 24);
    auto lat = network.Transfer(0, to, 100);
    benchmark::DoNotOptimize(lat);
    network.RecordDelivery(to, 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransfer);

// End-to-end simulator event rate on a fig8-style 25-node PigPaxos run
// (3 relay groups, 32 closed-loop clients, 50/50 r/w). items/s =
// simulator events per wall-clock second, the number the bench gate pins.
void BM_ClusterFig8Events(benchmark::State& state) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 25;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.num_clients = 32;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 400 * kMillisecond;
  cfg.seed = 42;
  uint64_t events = 0;
  for (auto _ : state) {
    harness::RunResult r = harness::RunExperiment(cfg);
    events += r.total_events;
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_ClusterFig8Events)->Unit(benchmark::kMillisecond);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Record(static_cast<TimeNs>(rng.NextBounded(10 * kMillisecond)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_RngNextBounded(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBounded(25));
  }
}
BENCHMARK(BM_RngNextBounded);

void BM_RelayGroupReshuffle(benchmark::State& state) {
  std::vector<NodeId> followers;
  for (NodeId i = 1; i < 25; ++i) followers.push_back(i);
  pigpaxos::RelayGroupPlanner planner(
      followers, pigpaxos::RelayGroupConfig{
                     3, pigpaxos::GroupingStrategy::kContiguous, nullptr});
  Rng rng(3);
  for (auto _ : state) {
    planner.Reshuffle(rng);
    benchmark::DoNotOptimize(planner.groups().size());
  }
}
BENCHMARK(BM_RelayGroupReshuffle);

}  // namespace
}  // namespace pig

BENCHMARK_MAIN();
