// Scenario data: an environment (topology) plus a fault schedule, as
// plain values. RunExperiment, the comparative sweeps (harness/
// scenario.h), the conformance harness and the JSON scenario packs
// (harness/scenario_config.h) all consume the same ScenarioSpec; it is
// the only way to script crashes, partitions and delivery faults.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pig::harness {

using pig::TimeNs;

enum class Topology { kLan, kWanVaCaOr };

enum class FaultKind {
  kCrash,          ///< Silently crash `node`.
  kRecover,        ///< Recover `node` (re-runs OnStart).
  kPartition,      ///< Install `partition_groups` (group per replica id).
  kHeal,           ///< Drop all partitions.
  kGraySlowStart,  ///< Begin a gray slowdown of `node` (slow, not dead).
  kGraySlowEnd,    ///< End `node`'s gray slowdown.
  kLinkDown,       ///< Cut the directed link `node` -> `peer`.
  kLinkUp,         ///< Restore the directed link `node` -> `peer`.
  kReshuffle,      ///< Force a relay-group reshuffle at the current
                   ///< PigPaxos leader (no-op for other protocols).
  kCrashGroupLeader,  ///< Crash whichever node leads consensus group
                      ///< `group` at fire time (sharded runs; for
                      ///< unsharded clusters group 0 = the leader).
  kCrashWithDisk,    ///< kill -9 `node`: actor rebuilt on recover, must
                     ///< replay snapshot + WAL from its Storage.
  kCrashLosingDisk,  ///< Machine replacement: like kCrashWithDisk but
                     ///< storage is wiped; node catches up from peers.
  kOneWayDown,     ///< Asymmetric partition: `node`'s sends to `peer` are
                   ///< lost while the reverse direction keeps delivering.
                   ///< peer == kInvalidNode mutes ALL of `node`'s sends.
  kOneWayRestore,  ///< Undo the matching kOneWayDown.
  kDuplicateLink,  ///< Duplicate messages on `node` -> `peer` with
                   ///< probability `value` (both kInvalidNode = every
                   ///< link; value 0 disarms).
  kReorderLink,    ///< Reorder jitter on `node` -> `peer`: every message
                   ///< gets an extra uniform latency in
                   ///< [0, extra_latency], letting later sends overtake
                   ///< earlier ones (wildcards as above; 0 disarms).
  kClockSkew,      ///< Multiply `node`'s timer delays by `value`
                   ///< (> 1 = slow clock, < 1 = fast; 1.0 restores).
};

/// One scripted fault at an absolute virtual time (measured from run
/// start, i.e. the same clock RunExperiment's warmup/measure use).
struct FaultEvent {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node = kInvalidNode;  ///< crash/recover/gray/link-from.
  NodeId peer = kInvalidNode;  ///< link-to.
  std::vector<int> partition_groups;  ///< kPartition: group per replica.
  uint32_t group = 0;  ///< kCrashGroupLeader: target consensus group.
  double value = 0.0;  ///< kDuplicateLink probability / kClockSkew factor.
  TimeNs extra_latency = 0;  ///< kReorderLink: max extra one-way latency.
};

// Event factories: schedules read as data tables.
inline FaultEvent CrashEvent(TimeNs at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCrash;
  e.node = node;
  return e;
}
inline FaultEvent RecoverEvent(TimeNs at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRecover;
  e.node = node;
  return e;
}
inline FaultEvent PartitionEvent(TimeNs at, std::vector<int> groups) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kPartition;
  e.partition_groups = std::move(groups);
  return e;
}
inline FaultEvent HealEvent(TimeNs at) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kHeal;
  return e;
}
inline FaultEvent GraySlowEvent(TimeNs at, NodeId node, bool start) {
  FaultEvent e;
  e.at = at;
  e.kind = start ? FaultKind::kGraySlowStart : FaultKind::kGraySlowEnd;
  e.node = node;
  return e;
}
inline FaultEvent LinkEvent(TimeNs at, NodeId from, NodeId to, bool down) {
  FaultEvent e;
  e.at = at;
  e.kind = down ? FaultKind::kLinkDown : FaultKind::kLinkUp;
  e.node = from;
  e.peer = to;
  return e;
}
inline FaultEvent ReshuffleEvent(TimeNs at) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kReshuffle;
  return e;
}
inline FaultEvent CrashGroupLeaderEvent(TimeNs at, uint32_t group) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCrashGroupLeader;
  e.group = group;
  return e;
}
inline FaultEvent CrashWithDiskEvent(TimeNs at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCrashWithDisk;
  e.node = node;
  return e;
}
inline FaultEvent CrashLosingDiskEvent(TimeNs at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCrashLosingDisk;
  e.node = node;
  return e;
}
/// One-way partition of `from` -> `to` (to == kInvalidNode: all of
/// `from`'s outbound traffic). `down` = cut vs. restore.
inline FaultEvent OneWayPartitionEvent(TimeNs at, NodeId from, NodeId to,
                                       bool down) {
  FaultEvent e;
  e.at = at;
  e.kind = down ? FaultKind::kOneWayDown : FaultKind::kOneWayRestore;
  e.node = from;
  e.peer = to;
  return e;
}
/// Message duplication on `from` -> `to` with `probability` per message
/// (both kInvalidNode = every link; probability 0 disarms).
inline FaultEvent DuplicateLinkEvent(TimeNs at, NodeId from, NodeId to,
                                     double probability) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kDuplicateLink;
  e.node = from;
  e.peer = to;
  e.value = probability;
  return e;
}
/// Reorder jitter on `from` -> `to`: uniform extra latency in
/// [0, max_extra] per message (wildcards as above; 0 disarms).
inline FaultEvent ReorderLinkEvent(TimeNs at, NodeId from, NodeId to,
                                   TimeNs max_extra) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kReorderLink;
  e.node = from;
  e.peer = to;
  e.extra_latency = max_extra;
  return e;
}
/// Multiplies `node`'s timer delays by `factor` from `at` on (1.0
/// restores an honest clock).
inline FaultEvent ClockSkewEvent(TimeNs at, NodeId node, double factor) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kClockSkew;
  e.node = node;
  e.value = factor;
  return e;
}

/// A named environment + fault schedule, independent of any protocol.
struct ScenarioSpec {
  std::string name = "scenario";
  Topology topology = Topology::kLan;

  /// Extra one-way latency on every link touching a gray-slowed node.
  TimeNs gray_extra_latency = 20 * kMillisecond;

  /// Scripted faults, any order (scheduled individually by time).
  std::vector<FaultEvent> schedule;

  bool HasGrayEvents() const {
    for (const FaultEvent& e : schedule) {
      if (e.kind == FaultKind::kGraySlowStart ||
          e.kind == FaultKind::kGraySlowEnd) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace pig::harness
