// JSON loading/saving for ScenarioSpec: checked-in chaos scenarios under
// scenarios/*.json drive the same scripted fault schedules as the
// programmatic factories in harness/scenario_spec.h.
//
// Schema (all times accepted as "<field>_ns" integers or "<field>_ms"
// numbers; the serializer always emits _ns so a round trip is lossless):
//
//   {
//     "name": "wan-chaos",
//     "topology": "lan" | "wan-va-ca-or",
//     "gray_extra_latency_ns": 20000000,
//     "schedule": [
//       {"at_ms": 500, "kind": "partition", "groups": [0,0,1]},
//       {"at_ms": 900, "kind": "crash", "node": 4},
//       {"at_ms": 1200, "kind": "one-way-down", "node": 2, "peer": "*"},
//       {"at_ms": 1300, "kind": "duplicate-link", "node": "*",
//        "peer": "*", "probability": 0.4},
//       {"at_ms": 1400, "kind": "reorder-link", "node": "*", "peer": "*",
//        "extra_latency_ms": 30},
//       {"at_ms": 1500, "kind": "clock-skew", "node": 1, "factor": 1.5},
//       {"at_ms": 1600, "kind": "heal"}
//     ]
//   }
//
// "node"/"peer" take a replica id or "*" (= wildcard / all). Kinds map
// 1:1 onto FaultKind; see FaultKindName. Parsing is strict: unknown
// kinds, unknown keys' types, negative times, and out-of-range values
// are InvalidArgument errors, never silently ignored.
#pragma once

#include <string>

#include "common/status.h"
#include "harness/scenario_spec.h"

namespace pig::harness {

/// Canonical JSON name of a fault kind ("crash", "one-way-down", ...).
const char* FaultKindName(FaultKind kind);

/// Inverse of FaultKindName; InvalidArgument for unknown names.
Result<FaultKind> FaultKindFromName(const std::string& name);

/// Parses a ScenarioSpec from JSON text. Schedule order is preserved
/// exactly as written (events are scheduled individually by time, so
/// order only matters for same-timestamp events).
Result<ScenarioSpec> ScenarioFromJson(const std::string& json);

/// Reads and parses a scenario file.
Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

/// Serializes deterministically: fixed field order, _ns times, no
/// floating-point rounding surprises (probabilities/factors use %.6g).
/// ScenarioFromJson(ScenarioToJson(s)) reproduces `s` field for field.
std::string ScenarioToJson(const ScenarioSpec& spec);

/// Writes ScenarioToJson to `path`.
Status SaveScenarioFile(const std::string& path, const ScenarioSpec& spec);

/// Checks a parsed spec against a concrete cluster size: every concrete
/// node/peer id must be a valid replica id, partition maps must not name
/// more replicas than exist, probabilities stay in [0, 1], and clock
/// skew factors are positive.
Status ValidateScenario(const ScenarioSpec& spec, size_t num_replicas);

}  // namespace pig::harness
