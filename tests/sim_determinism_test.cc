// Determinism regression tests for the simulator core.
//
// The scheduler's ordering contract — events fire in (time, insertion
// sequence) order, cancellation never perturbs the order of survivors —
// is what makes every experiment reproducible. These tests pin it two
// ways: (1) a trace-equality check of the real slab scheduler against a
// naive reference implementation of the same contract, over randomized
// schedule/cancel/nested workloads, and (2) fig7-shaped PigPaxos runs
// that must produce identical commit counts, latency digests, and
// per-node TrafficStats when re-run with the same seed. (3) A golden
// table pins short runs of every protocol, a sharded run, a scripted-
// fault WAN run and the full 20-config scenario sweep to constants, so a
// refactor of how runs are configured must reproduce them exactly.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "shard/router.h"
#include "sim/scheduler.h"

namespace pig {
namespace {

/// Reference implementation of the scheduler's ordering contract: an
/// unsorted event list scanned for the (time, seq) minimum each step.
/// O(n^2) and allocation-happy — but obviously correct.
class ReferenceScheduler {
 public:
  TimeNs now() const { return now_; }

  uint64_t ScheduleAt(TimeNs when, std::function<void()> fn) {
    if (when < now_) when = now_;
    events_.push_back(Event{when, next_seq_, std::move(fn), true});
    return next_seq_++;
  }

  uint64_t ScheduleAfter(TimeNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  void Cancel(uint64_t id) {
    for (Event& e : events_) {
      if (e.seq == id) e.live = false;
    }
  }

  uint64_t RunAll() {
    uint64_t ran = 0;
    while (true) {
      size_t best = events_.size();
      for (size_t i = 0; i < events_.size(); ++i) {
        const Event& e = events_[i];
        if (!e.live) continue;
        if (best == events_.size() || e.time < events_[best].time ||
            (e.time == events_[best].time && e.seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size()) return ran;
      events_[best].live = false;
      now_ = events_[best].time;
      // Move the body out: the callback may grow events_.
      std::function<void()> fn = std::move(events_[best].fn);
      fn();
      ran++;
    }
  }

 private:
  struct Event {
    TimeNs time;
    uint64_t seq;
    std::function<void()> fn;
    bool live;
  };

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Event> events_;
};

/// Drives `S` through a randomized workload — colliding fire times,
/// cancels of arbitrary pending events (including some already-fired
/// ids), and handlers that schedule children — and returns the full
/// firing trace as (label, fire time) pairs.
template <typename S>
std::vector<std::pair<int, TimeNs>> RunTrace(uint64_t seed) {
  S sched;
  Rng rng(seed);
  std::vector<uint64_t> ids;
  std::vector<std::pair<int, TimeNs>> trace;
  int next_label = 0;
  for (int i = 0; i < 400; ++i) {
    const int label = next_label++;
    // A small time range forces plenty of same-time ties.
    const TimeNs when = static_cast<TimeNs>(rng.NextBounded(97));
    ids.push_back(sched.ScheduleAt(when, [&sched, &trace, &next_label,
                                          label]() {
      trace.emplace_back(label, sched.now());
      if (label % 5 == 0) {
        const int child = next_label++;
        sched.ScheduleAfter(static_cast<TimeNs>(label % 13),
                            [&sched, &trace, child]() {
                              trace.emplace_back(child, sched.now());
                            });
      }
    }));
    if (i % 3 == 0) {
      sched.Cancel(ids[rng.NextBounded(ids.size())]);
    }
    if (i % 50 == 17) {
      // Interleave partial draining so cancels hit already-fired events.
      sched.RunAll();
    }
  }
  sched.RunAll();
  return trace;
}

TEST(SchedulerTraceTest, MatchesReferenceImplementation) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 12345ull, 0xdeadbeefull}) {
    auto fast = RunTrace<sim::Scheduler>(seed);
    auto ref = RunTrace<ReferenceScheduler>(seed);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, ref) << "trace diverged for seed " << seed;
  }
}

/// Two same-seed runs of a fig7-shaped workload (PigPaxos relay-group
/// sweep shape: 9 replicas, closed-loop clients, 50/50 r/w) must agree
/// on every observable: commits, latency digests, message counts, event
/// totals.
harness::RunResult Fig7ShapedRun(size_t relay_groups, uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 9;
  cfg.replica.pig.num_relay_groups = relay_groups;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = seed;
  return harness::RunExperiment(cfg);
}

TEST(SimDeterminismTest, SameSeedFig7RunsAreIdentical) {
  for (size_t groups : {2u, 3u}) {
    harness::RunResult a = Fig7ShapedRun(groups, 42);
    harness::RunResult b = Fig7ShapedRun(groups, 42);
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.redirects, b.redirects);
    EXPECT_EQ(a.total_events, b.total_events);
    EXPECT_EQ(a.timeline, b.timeline);
    // Latency digests and per-replica traffic/CPU must match bit-for-bit.
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.msgs_per_request, b.msgs_per_request);
    EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
    EXPECT_EQ(a.relay_timeouts, b.relay_timeouts);
    EXPECT_EQ(a.relay_early_batches, b.relay_early_batches);
  }
}

TEST(SimDeterminismTest, DifferentSeedsDiverge) {
  harness::RunResult a = Fig7ShapedRun(3, 1);
  harness::RunResult b = Fig7ShapedRun(3, 2);
  EXPECT_NE(a.total_events, b.total_events);
}

/// Same fig7 shape with the batching engine on: leader batching, commit
/// pipelining, and relay uplink coalescing must stay exactly as
/// deterministic as the legacy path — two same-seed runs agree on every
/// report field, byte for byte.
harness::RunResult BatchedFig7Run(uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 9;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = seed;
  cfg.replica.paxos.batch_size = 4;
  cfg.replica.paxos.pipeline_depth = 4;
  cfg.replica.pig.uplink_coalesce_max = 2;
  return harness::RunExperiment(cfg);
}

TEST(SimDeterminismTest, SameSeedBatchedPipelinedRunsAreIdentical) {
  harness::RunResult a = BatchedFig7Run(42);
  harness::RunResult b = BatchedFig7Run(42);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.batches_proposed, 0u) << "batching engine never engaged";
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.redirects, b.redirects);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.msgs_per_request, b.msgs_per_request);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.relay_timeouts, b.relay_timeouts);
  EXPECT_EQ(a.relay_early_batches, b.relay_early_batches);
  // Engine-specific counters are part of the report contract too.
  EXPECT_EQ(a.batches_proposed, b.batches_proposed);
  EXPECT_EQ(a.batched_commands, b.batched_commands);
  EXPECT_EQ(a.batch_timeout_flushes, b.batch_timeout_flushes);
  EXPECT_EQ(a.pipeline_stalls, b.pipeline_stalls);
  EXPECT_EQ(a.uplink_bundles, b.uplink_bundles);
  EXPECT_EQ(a.uplink_coalesced, b.uplink_coalesced);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.stale_replies, b.stale_replies);
}

/// Stress shape for the PR 4 message layer: multi-layer relay trees
/// (shared immutable leaf envelopes fan the same MessagePtr to every
/// member), pooled envelope recycling, threshold-triggered partial
/// batches, and uplink coalescing — all active at once. Two same-seed
/// runs must still agree on every report field, byte for byte, proving
/// the zero-allocation message layer changes no observable behavior.
harness::RunResult MessageLayerStressRun(uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 25;
  cfg.replica.pig.num_relay_groups = 2;
  cfg.replica.pig.relay_layers = 2;
  cfg.replica.pig.group_response_threshold = 4;
  cfg.num_clients = 16;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = seed;
  cfg.replica.paxos.batch_size = 4;
  cfg.replica.paxos.pipeline_depth = 4;
  cfg.replica.pig.uplink_coalesce_max = 3;
  return harness::RunExperiment(cfg);
}

TEST(SimDeterminismTest, SameSeedMessageLayerStressRunsAreIdentical) {
  harness::RunResult a = MessageLayerStressRun(42);
  harness::RunResult b = MessageLayerStressRun(42);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(a.relay_early_batches, 0u)
      << "threshold partial batches never engaged";
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.redirects, b.redirects);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.msgs_per_request, b.msgs_per_request);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.relay_timeouts, b.relay_timeouts);
  EXPECT_EQ(a.relay_early_batches, b.relay_early_batches);
  EXPECT_EQ(a.uplink_bundles, b.uplink_bundles);
  EXPECT_EQ(a.uplink_coalesced, b.uplink_coalesced);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
}

/// The engine at batch=1/depth=1 is *off*: a default-options run and an
/// explicitly "disabled engine" run must produce identical reports (the
/// legacy proposal path is untouched).
TEST(SimDeterminismTest, DisabledEngineMatchesLegacyPathExactly) {
  harness::RunResult legacy = Fig7ShapedRun(3, 42);
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = harness::Protocol::kPigPaxos;
  cfg.replica.num_replicas = 9;
  cfg.replica.pig.num_relay_groups = 3;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 300 * kMillisecond;
  cfg.seed = 42;
  cfg.replica.paxos.batch_size = 1;
  cfg.replica.paxos.pipeline_depth = 1;
  cfg.replica.pig.uplink_coalesce_max = 1;
  harness::RunResult off = harness::RunExperiment(cfg);
  EXPECT_EQ(legacy.completed, off.completed);
  EXPECT_EQ(legacy.total_events, off.total_events);
  EXPECT_EQ(legacy.timeline, off.timeline);
  EXPECT_EQ(legacy.throughput, off.throughput);
  EXPECT_EQ(legacy.mean_ms, off.mean_ms);
  EXPECT_EQ(legacy.msgs_per_request, off.msgs_per_request);
  EXPECT_EQ(legacy.cpu_utilization, off.cpu_utilization);
  EXPECT_EQ(off.batches_proposed, 0u);
  EXPECT_EQ(off.uplink_bundles, 0u);
  EXPECT_EQ(off.mean_batch_size, 1.0);
}

// ---------------------------------------------------------------------------
// Golden outputs. Each run is reduced to its completion count, its
// simulator event count and an FNV-1a digest of every other observable
// (timeline, per-replica message and CPU figures, latency digests and
// protocol counters). The constants were recorded from the simulator as
// it stood before the replica-spec refactor; any change to them is a
// behaviour change, not a cleanup.

void AppendField(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
  out += buf;
}

void AppendField(std::string& out, const char* name, uint64_t v) {
  out += name;
  out += "=" + std::to_string(v) + ";";
}

template <typename T>
void AppendField(std::string& out, const char* name,
                 const std::vector<T>& vs) {
  out += name;
  out += "=[";
  for (const T& v : vs) AppendField(out, "", v);
  out += "];";
}

uint64_t Digest(const harness::RunResult& r) {
  std::string s;
  AppendField(s, "throughput", r.throughput);
  AppendField(s, "mean_ms", r.mean_ms);
  AppendField(s, "p50_ms", r.p50_ms);
  AppendField(s, "p99_ms", r.p99_ms);
  AppendField(s, "timeouts", r.timeouts);
  AppendField(s, "redirects", r.redirects);
  AppendField(s, "timeline", r.timeline);
  AppendField(s, "per_group_completed", r.per_group_completed);
  AppendField(s, "msgs_per_request", r.msgs_per_request);
  AppendField(s, "cpu_utilization", r.cpu_utilization);
  AppendField(s, "cross_region_msgs", r.cross_region_msgs);
  AppendField(s, "elections_started", r.elections_started);
  AppendField(s, "propose_retries", r.propose_retries);
  AppendField(s, "log_syncs", r.log_syncs);
  AppendField(s, "relay_timeouts", r.relay_timeouts);
  AppendField(s, "relay_early_batches", r.relay_early_batches);
  AppendField(s, "relays_suspected", r.relays_suspected);
  AppendField(s, "reshuffles", r.reshuffles);
  AppendField(s, "stale_replies", r.stale_replies);
  AppendField(s, "ring_rounds_completed", r.ring_rounds_completed);
  AppendField(s, "ring_timeouts", r.ring_timeouts);
  AppendField(s, "ring_fallback_fanouts", r.ring_fallback_fanouts);
  AppendField(s, "batches_proposed", r.batches_proposed);
  AppendField(s, "batched_commands", r.batched_commands);
  AppendField(s, "batch_timeout_flushes", r.batch_timeout_flushes);
  AppendField(s, "pipeline_stalls", r.pipeline_stalls);
  AppendField(s, "uplink_bundles", r.uplink_bundles);
  AppendField(s, "uplink_coalesced", r.uplink_coalesced);
  AppendField(s, "mean_batch_size", r.mean_batch_size);
  return shard::StableKeyHash(s);
}

struct Golden {
  uint64_t completed;
  uint64_t total_events;
  uint64_t digest;
};

void ExpectGolden(const char* name, const harness::RunResult& r,
                  const Golden& want) {
  EXPECT_GT(r.completed, 0u) << name;
  EXPECT_EQ(r.completed, want.completed) << name;
  EXPECT_EQ(r.total_events, want.total_events) << name;
  EXPECT_EQ(Digest(r), want.digest) << name;
  std::printf("golden %s: {%" PRIu64 "u, %" PRIu64 "u, 0x%016" PRIx64
              "ull}\n",
              name, r.completed, r.total_events, Digest(r));
}

harness::ExperimentConfig GoldenBase(harness::Protocol protocol,
                                     size_t replicas) {
  harness::ExperimentConfig cfg;
  cfg.replica.protocol = protocol;
  cfg.replica.num_replicas = replicas;
  cfg.num_clients = 8;
  cfg.workload.read_ratio = 0.5;
  cfg.warmup = 100 * kMillisecond;
  cfg.measure = 400 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

TEST(SimGoldenTest, Paxos) {
  ExpectGolden("paxos",
               harness::RunExperiment(
                   GoldenBase(harness::Protocol::kPaxos, 5)),
               {4271u, 106631u, 0xbe483c5fdabf8982ull});
}

TEST(SimGoldenTest, PigPaxosThreeGroups) {
  harness::ExperimentConfig cfg = GoldenBase(harness::Protocol::kPigPaxos, 9);
  cfg.replica.pig.num_relay_groups = 3;
  ExpectGolden("pigpaxos", harness::RunExperiment(cfg), {3026u, 138854u, 0xf412835c83fe409full});
}

TEST(SimGoldenTest, Ring) {
  ExpectGolden("ring",
               harness::RunExperiment(GoldenBase(harness::Protocol::kRing, 7)),
               {2106u, 48639u, 0xa3735d7c1792d1e7ull});
}

TEST(SimGoldenTest, EPaxos) {
  ExpectGolden("epaxos",
               harness::RunExperiment(
                   GoldenBase(harness::Protocol::kEPaxos, 5)),
               {812u, 28764u, 0x142748e46bd91520ull});
}

TEST(SimGoldenTest, ShardedPigPaxos) {
  harness::ExperimentConfig cfg = GoldenBase(harness::Protocol::kPigPaxos, 5);
  cfg.replica.num_groups = 2;
  cfg.replica.pig.num_relay_groups = 2;
  ExpectGolden("sharded-pigpaxos", harness::RunExperiment(cfg),
               {3273u, 85151u, 0xe96fb20600041fd7ull});
}

TEST(SimGoldenTest, WanRegionPigPaxosUnderCrashRecover) {
  harness::ScenarioSpec spec;
  spec.name = "golden-wan-crash";
  spec.topology = harness::Topology::kWanVaCaOr;
  spec.schedule = {harness::CrashEvent(500 * kMillisecond, 4),
                   harness::RecoverEvent(900 * kMillisecond, 4)};
  harness::ExperimentConfig cfg = GoldenBase(harness::Protocol::kPigPaxos, 9);
  cfg.replica.pig.num_relay_groups = 3;
  cfg.replica.pig.grouping = pigpaxos::GroupingStrategy::kRegion;
  cfg.measure = 1500 * kMillisecond;
  cfg.scenario = spec;
  ExpectGolden("wan-region-crash", harness::RunExperiment(cfg),
               {184u, 10077u, 0xde5fce67449e55adull});
}

TEST(SimGoldenTest, LanPigPaxosLeaderCrashRecover) {
  // The fig13 shape in miniature: the leader dies and comes back.
  harness::ExperimentConfig cfg = GoldenBase(harness::Protocol::kPigPaxos, 9);
  cfg.replica.pig.num_relay_groups = 3;
  cfg.scenario.schedule = {harness::CrashEvent(150 * kMillisecond, 0),
                           harness::RecoverEvent(300 * kMillisecond, 0)};
  ExpectGolden("lan-leader-crash", harness::RunExperiment(cfg),
               {1143u, 68619u, 0x810ace2a69983042ull});
}

TEST(SimGoldenTest, FullScenarioSweepJson) {
  // The bench_scenario_sweep --full-sweep configuration: 20 configs
  // under one partitioned-WAN schedule.
  harness::ScenarioSpec spec;
  spec.name = "wan-partition-sweep";
  spec.topology = harness::Topology::kWanVaCaOr;
  spec.schedule = {
      harness::PartitionEvent(300 * kMillisecond,
                              {0, 0, 0, 0, 0, 0, 1, 1, 1}),
      harness::CrashEvent(600 * kMillisecond, 4),
      harness::HealEvent(1100 * kMillisecond),
      harness::RecoverEvent(1400 * kMillisecond, 4),
  };
  harness::SweepAxes axes;
  axes.protocols = {harness::Protocol::kPaxos, harness::Protocol::kPigPaxos,
                    harness::Protocol::kRing};
  axes.quorums = {{0, 0}, {8, 2}};
  axes.relay_groups = {2, 3};
  axes.overlaps = {0, 1};
  axes.coalesce = {1, 4};
  harness::ExperimentConfig base;
  base.replica.num_replicas = 9;
  base.num_clients = 24;
  base.replica.pig.num_relay_groups = 3;
  base.workload.read_ratio = 0.5;
  base.warmup = 200 * kMillisecond;
  base.measure = 3 * kSecond;
  base.seed = 42;
  const std::string json =
      harness::SweepReportJson(harness::RunScenarioSweep(spec, axes, base));
  const uint64_t hash = shard::StableKeyHash(json);
  std::printf("golden sweep: %zu bytes, 0x%016" PRIx64 "ull\n",
              json.size(), hash);
  EXPECT_EQ(hash, 0x7575b5703901e1e5ull);
}

}  // namespace
}  // namespace pig
