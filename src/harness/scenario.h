// Scenario engine: declarative chaos scenarios and comparative sweeps.
//
// A ScenarioSpec (harness/scenario_spec.h) describes an environment
// (topology / WAN region map) plus a fault schedule — crashes,
// recoveries, partitions, gray slowdowns, link cuts, forced regroupings
// — as data, at absolute virtual times. The same spec drives three
// consumers:
//
//   * RunExperiment: one measured harness run under the scripted faults
//     (ExperimentConfig::scenario, scheduled via PrepareScenario +
//     ScheduleScenario),
//   * RunScenarioSweep: a cross-product of
//     {protocol x flexible-quorum x relay-groups x overlap x coalesce}
//     configurations, all executed under IDENTICAL seeds and the
//     identical schedule, emitting one comparative report that is
//     byte-identical across same-seed reruns (SweepReportJson),
//   * the conformance harness (tests/conformance.h), which checks the
//     full invariant set under the same scripted schedules instead of
//     randomized chaos.
//
// This is the experiment layer the paper and its follow-up ("Scaling
// Strongly Consistent Replication") use to argue relay trees beat flat
// Paxos and ring pipelines: partitioned-WAN runs, flexible-quorum x
// relay-group interaction sweeps, and the Ring Paxos-style baseline
// (baselines/ring_replica.h) under one roof.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "harness/scenario_spec.h"
#include "net/latency.h"

namespace pig::harness {

/// The latency models a scenario instantiated: `latency` goes into the
/// cluster options (null = simulator default LAN), `sluggish` is the
/// gray-slowdown decorator the schedule flips (null when the spec has no
/// gray events).
struct ScenarioRuntime {
  std::shared_ptr<net::LatencyModel> latency;
  std::shared_ptr<net::SluggishNodeLatency> sluggish;
};

/// Builds the scenario's latency model for `num_replicas` replicas
/// (VaCaOr WAN matrix with contiguous region blocks for
/// Topology::kWanVaCaOr), wrapped in a SluggishNodeLatency when the
/// schedule contains gray events.
ScenarioRuntime PrepareScenario(const ScenarioSpec& spec,
                                size_t num_replicas);

/// Schedules every FaultEvent onto the cluster's virtual clock. Call
/// between cluster construction and the run (before or after Start()).
void ScheduleScenario(const ScenarioSpec& spec, const ScenarioRuntime& rt,
                      sim::Cluster& cluster);

/// Clears residual scenario state so a run can quiesce cleanly: recovers
/// crashed replicas, heals partitions and downed links recorded in the
/// schedule, and ends gray slowdowns.
void HealScenario(const ScenarioSpec& spec, const ScenarioRuntime& rt,
                  sim::Cluster& cluster, size_t num_replicas);

// ---------------------------------------------------------------------------
// Comparative sweeps

/// Axes of the configuration cross-product. The PigPaxos-only axes
/// (relay groups, overlap, coalesce) collapse to a single row for other
/// protocols, so e.g. {Paxos, PigPaxos, Ring} x 2 quorums x 2 groups
/// yields 2 + 8 + 2 rows (with one overlap and two coalesce values),
/// not 24.
struct SweepAxes {
  std::vector<Protocol> protocols = {Protocol::kPaxos, Protocol::kPigPaxos,
                                     Protocol::kRing};
  /// (q1, q2) pairs; (0, 0) = classic majority.
  std::vector<std::pair<size_t, size_t>> quorums = {{0, 0}};
  std::vector<size_t> relay_groups = {3};
  std::vector<size_t> overlaps = {0};
  std::vector<size_t> coalesce = {1};
};

/// One executed configuration of a sweep.
struct SweepRow {
  std::string label;
  Protocol protocol = Protocol::kPaxos;
  size_t q1 = 0, q2 = 0;
  size_t relay_groups = 0;  ///< 0 for non-relay protocols.
  size_t overlap = 0;
  size_t coalesce = 1;
  RunResult result;
};

struct SweepReport {
  std::string scenario;
  uint64_t seed = 0;
  size_t num_replicas = 0;
  std::vector<SweepRow> rows;
};

/// Executes the full cross-product under `base` (seed, cluster size,
/// load, batching knobs are shared by every row; protocol/quorum/relay
/// fields and the scenario are overwritten per row) with the scenario's
/// schedule applied identically to every configuration. PigPaxos rows
/// with 3 relay groups on a WAN topology group relays by region.
SweepReport RunScenarioSweep(const ScenarioSpec& spec, const SweepAxes& axes,
                             const ExperimentConfig& base);

/// Serializes a report deterministically: fixed field order, fixed
/// decimal formatting, no timestamps or host info — the same sweep under
/// the same seed must serialize byte-identically.
std::string SweepReportJson(const SweepReport& report);

/// Writes SweepReportJson to `path`.
Status WriteSweepReportJson(const std::string& path,
                            const SweepReport& report);

}  // namespace pig::harness
