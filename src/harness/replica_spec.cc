#include "harness/replica_spec.h"

#include <algorithm>
#include <cassert>

#include "shard/sharded_node.h"

namespace pig::harness {

std::string ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kPaxos:
      return "Paxos";
    case Protocol::kPigPaxos:
      return "PigPaxos";
    case Protocol::kEPaxos:
      return "EPaxos";
    case Protocol::kRing:
      return "Ring";
  }
  return "?";
}

int WanRegionOfNode(NodeId node, size_t num_replicas) {
  const size_t per_region = (num_replicas + 2) / 3;
  size_t region = node / per_region;
  return static_cast<int>(std::min<size_t>(region, 2));
}

std::unique_ptr<Actor> MakeReplica(const ReplicaSpec& spec, NodeId id,
                                   uint32_t group,
                                   storage::Storage* storage) {
  const size_t n = spec.num_replicas;
  assert(n >= 1 && id < n);
  paxos::PaxosOptions base = spec.paxos;
  base.num_replicas = n;
  // Leader spreading: group g bootstraps on node g % n, so a sharded
  // cluster's leader load spreads (and a cold ShardRouter can guess it).
  if (base.bootstrap_leader != kInvalidNode) {
    base.bootstrap_leader = static_cast<NodeId>(group % n);
  }
  base.storage = storage;
  switch (spec.protocol) {
    case Protocol::kPaxos:
      return std::make_unique<paxos::PaxosReplica>(id, std::move(base));
    case Protocol::kPigPaxos: {
      pigpaxos::PigPaxosOptions opt = spec.pig;
      opt.paxos = std::move(base);
      if (opt.grouping == pigpaxos::GroupingStrategy::kRegion) {
        // One relay group per WAN region (§6.4).
        opt.region_of = [n](NodeId node) { return WanRegionOfNode(node, n); };
      }
      return std::make_unique<pigpaxos::PigPaxosReplica>(id, std::move(opt));
    }
    case Protocol::kRing: {
      baselines::RingOptions opt = spec.ring;
      opt.paxos = std::move(base);
      return std::make_unique<baselines::RingReplica>(id, std::move(opt));
    }
    case Protocol::kEPaxos: {
      epaxos::EPaxosOptions opt = spec.epaxos;
      opt.num_replicas = n;
      return std::make_unique<epaxos::EPaxosReplica>(id, std::move(opt));
    }
  }
  return nullptr;
}

std::unique_ptr<Actor> MakeNode(
    const ReplicaSpec& spec, NodeId id,
    const std::function<storage::Storage*(uint32_t)>& storage_of) {
  auto storage = [&storage_of](uint32_t g) {
    return storage_of ? storage_of(g) : nullptr;
  };
  if (spec.num_groups <= 1) return MakeReplica(spec, id, 0, storage(0));
  // Sharding multiplexes leader-based groups; EPaxos and the ring
  // baseline stay single-group.
  assert(spec.protocol == Protocol::kPaxos ||
         spec.protocol == Protocol::kPigPaxos);
  auto node = std::make_unique<shard::ShardedNode>(spec.num_groups);
  for (uint32_t g = 0; g < spec.num_groups; ++g) {
    node->AddGroup(MakeReplica(spec, id, g, storage(g)));
  }
  return node;
}

}  // namespace pig::harness
