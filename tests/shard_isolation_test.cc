// Cross-group fault isolation (the sharding contract): consensus groups
// are independent failure domains, so crashing ONE group's leader must
// not dent the other groups' throughput.
//
// A/B comparison under identical seeds: the same sharded experiment runs
// once clean and once with a scripted kCrashGroupLeader fault against
// group 2 mid-measurement. Group 2 legitimately loses throughput while
// its replicas elect a new leader; every other group must stay within a
// small tolerance of its clean-run completions — on the SAME virtual
// schedule, so the comparison is exact, not statistical.
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.h"
#include "harness/scenario.h"

namespace pig::harness {
namespace {

ExperimentConfig ShardedConfig() {
  ExperimentConfig cfg;
  cfg.replica.protocol = Protocol::kPigPaxos;
  cfg.replica.num_replicas = 9;
  cfg.replica.num_groups = 4;
  cfg.replica.pig.num_relay_groups = 2;
  cfg.num_clients = 64;
  // Group-affine clients: each client feeds exactly one group, so a
  // crash in group 2 cannot head-of-line block load aimed at the
  // others (which would measure client coupling, not consensus).
  cfg.shard_affine_clients = true;
  cfg.workload.read_ratio = 0.5;
  cfg.workload.num_keys = 64;  // plenty of keys in every group
  cfg.seed = 21;
  cfg.warmup = 300 * kMillisecond;
  cfg.measure = 2 * kSecond;
  return cfg;
}

TEST(ShardIsolationTest, CrashingOneGroupLeaderLeavesOthersUnharmed) {
  const ExperimentConfig clean_cfg = ShardedConfig();
  const RunResult clean = RunExperiment(clean_cfg);
  ASSERT_EQ(clean.per_group_completed.size(), 4u);
  for (uint32_t g = 0; g < 4; ++g) {
    ASSERT_GT(clean.per_group_completed[g], 100u)
        << "group " << g << " idle in the clean run; the test is vacuous";
  }

  // Same config + seed, plus one scripted fault: kill whichever node
  // leads group 2 a third of the way into the measurement window.
  ExperimentConfig faulted_cfg = ShardedConfig();
  faulted_cfg.scenario.name = "crash-group2-leader";
  faulted_cfg.scenario.schedule.push_back(CrashGroupLeaderEvent(
      clean_cfg.warmup + clean_cfg.measure / 3, /*group=*/2));
  const RunResult faulted = RunExperiment(faulted_cfg);
  ASSERT_EQ(faulted.per_group_completed.size(), 4u);

  // Group 2 must actually have felt the crash (otherwise the scenario
  // missed and the isolation claim below proves nothing).
  EXPECT_LT(faulted.per_group_completed[2],
            clean.per_group_completed[2] * 9 / 10)
      << "group 2 did not lose throughput; did the crash fire?";

  // The untouched groups ride through. The crashed node also hosted
  // THEIR replicas (same boxes), so allow the modest dip of losing one
  // follower — but nothing like a leader outage.
  for (uint32_t g = 0; g < 4; ++g) {
    if (g == 2) continue;
    EXPECT_GE(faulted.per_group_completed[g],
              clean.per_group_completed[g] * 8 / 10)
        << "group " << g << " collapsed when group 2's leader crashed: "
        << faulted.per_group_completed[g] << " vs clean "
        << clean.per_group_completed[g];
  }
}

TEST(ShardIsolationTest, SingleGroupRunsMatchUnshardedHarness) {
  // num_groups = 1 must be byte-identical to the pre-sharding harness:
  // same seed, same virtual schedule, same counters.
  ExperimentConfig a = ShardedConfig();
  a.replica.num_groups = 1;
  ExperimentConfig b = ShardedConfig();
  b.replica.num_groups = 0;  // normalized to 1 inside the harness
  const RunResult ra = RunExperiment(a);
  const RunResult rb = RunExperiment(b);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.total_events, rb.total_events);
  EXPECT_EQ(ra.throughput, rb.throughput);
  ASSERT_EQ(ra.per_group_completed.size(), 1u);
  EXPECT_EQ(ra.per_group_completed[0], ra.completed);
}

}  // namespace
}  // namespace pig::harness
