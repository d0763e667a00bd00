// One description of a replica, one factory that builds it.
//
// PigPaxos is Multi-Paxos with only the communication layer replaced
// (paper §3.3), so choosing a protocol is one field of a ReplicaSpec and
// every protocol shares its one PaxosOptions. The simulator harness, the
// conformance harness, the tests, the benches, the examples and pig_node
// all build replicas through MakeReplica/MakeNode, which are the only
// code that fills the per-node option fields (num_replicas,
// bootstrap_leader, storage, region_of).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "baselines/ring_replica.h"
#include "common/types.h"
#include "consensus/env.h"
#include "epaxos/replica.h"
#include "paxos/replica.h"
#include "pigpaxos/replica.h"
#include "storage/storage.h"

namespace pig::harness {

enum class Protocol { kPaxos, kPigPaxos, kEPaxos, kRing };

std::string ProtocolName(Protocol p);

/// Region assignment used for Topology::kWanVaCaOr: contiguous blocks of
/// ~N/3 nodes per region; node 0 (the bootstrap leader) is in Virginia.
/// Shared by the scenario engine (latency matrix) and the factory
/// (GroupingStrategy::kRegion) so every layer agrees on the WAN layout.
int WanRegionOfNode(NodeId node, size_t num_replicas);

struct ReplicaSpec {
  Protocol protocol = Protocol::kPaxos;
  size_t num_replicas = 5;

  /// Independent consensus groups hash-partitioning the keyspace
  /// (shard/). With > 1, every node hosts one replica per group in a
  /// shard::ShardedNode. Only Paxos and PigPaxos support sharding.
  uint32_t num_groups = 1;

  /// The Multi-Paxos core every protocol but EPaxos runs on. It replaces
  /// `pig.paxos` and `ring.paxos`, which the factory ignores.
  /// bootstrap_leader == kInvalidNode keeps cold elections; any other
  /// value means "group g bootstraps on node g % num_replicas".
  paxos::PaxosOptions paxos;
  pigpaxos::PigPaxosOptions pig;
  baselines::RingOptions ring;
  epaxos::EPaxosOptions epaxos;
};

/// Builds node `id`'s replica of consensus group `group`. `storage`
/// (non-owning, may be null) is ignored by EPaxos, which has no WAL.
std::unique_ptr<Actor> MakeReplica(const ReplicaSpec& spec, NodeId id,
                                   uint32_t group = 0,
                                   storage::Storage* storage = nullptr);

/// Builds node `id`'s actor: its group-0 replica, or a shard::ShardedNode
/// hosting one replica per group when spec.num_groups > 1.
/// `storage_of(g)` supplies group g's storage (null function = memory
/// only).
std::unique_ptr<Actor> MakeNode(
    const ReplicaSpec& spec, NodeId id,
    const std::function<storage::Storage*(uint32_t)>& storage_of = {});

}  // namespace pig::harness
