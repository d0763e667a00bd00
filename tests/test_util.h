// Shared helpers for protocol tests on the simulator.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/client_messages.h"
#include "consensus/env.h"
#include "harness/replica_spec.h"
#include "sim/cluster.h"

namespace pig::test {

/// A scriptable client actor: the test body calls Put/Get after
/// cluster.Start() and inspects `replies` after running the simulator.
class Prober : public Actor {
 public:
  struct Reply {
    uint64_t seq;
    StatusCode code;
    std::string value;
    NodeId leader_hint;
    TimeNs at;
  };

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    (void)from;
    if (msg->type() != MsgType::kClientReply) return;
    const auto& r = static_cast<const ClientReply&>(*msg);
    replies.push_back(
        Reply{r.seq, r.code, r.value, r.leader_hint, env_->Now()});
  }

  uint64_t Put(NodeId target, const std::string& key,
               const std::string& value) {
    Command cmd = Command::Put(key, value, env_->self(), ++seq_);
    env_->Send(target, std::make_shared<ClientRequest>(cmd));
    return seq_;
  }

  uint64_t Get(NodeId target, const std::string& key) {
    Command cmd = Command::Get(key, env_->self(), ++seq_);
    env_->Send(target, std::make_shared<ClientRequest>(cmd));
    return seq_;
  }

  /// Re-sends an already-issued command (same seq) — dedup testing.
  void Resend(NodeId target, const Command& cmd) {
    env_->Send(target, std::make_shared<ClientRequest>(cmd));
  }

  const Reply* FindReply(uint64_t seq) const {
    for (const auto& r : replies) {
      if (r.seq == seq && r.code == StatusCode::kOk) return &r;
    }
    return nullptr;
  }

  size_t OkCount() const {
    size_t n = 0;
    for (const auto& r : replies) n += (r.code == StatusCode::kOk);
    return n;
  }

  std::vector<Reply> replies;

 private:
  uint64_t seq_ = 0;
};

// Specs for the common single-protocol shapes. The PigPaxos helper
// lifts opt.paxos into the spec's one PaxosOptions.
inline harness::ReplicaSpec PaxosSpec(size_t n, paxos::PaxosOptions opt = {}) {
  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kPaxos;
  spec.num_replicas = n;
  spec.paxos = std::move(opt);
  return spec;
}

inline harness::ReplicaSpec PigSpec(size_t n,
                                    pigpaxos::PigPaxosOptions opt = {}) {
  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kPigPaxos;
  spec.num_replicas = n;
  spec.paxos = opt.paxos;
  spec.pig = std::move(opt);
  return spec;
}

inline harness::ReplicaSpec EPaxosSpec(size_t n,
                                       epaxos::EPaxosOptions opt = {}) {
  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kEPaxos;
  spec.num_replicas = n;
  spec.epaxos = std::move(opt);
  return spec;
}

/// Adds spec.num_replicas nodes built by harness::MakeNode.
inline void AddReplicas(sim::Cluster& cluster,
                        const harness::ReplicaSpec& spec) {
  for (NodeId i = 0; i < spec.num_replicas; ++i) {
    cluster.AddReplica(i, harness::MakeNode(spec, i));
  }
}

/// AddReplicas plus one Prober client. Returns the prober; replicas are
/// cluster.actor(i).
inline Prober* MakeCluster(sim::Cluster& cluster,
                           const harness::ReplicaSpec& spec) {
  AddReplicas(cluster, spec);
  auto prober = std::make_unique<Prober>();
  Prober* p = prober.get();
  cluster.AddClient(sim::Cluster::MakeClientId(0), std::move(prober));
  return p;
}

inline const paxos::PaxosReplica* PaxosAt(sim::Cluster& cluster, NodeId id) {
  return static_cast<const paxos::PaxosReplica*>(cluster.actor(id));
}

inline const pigpaxos::PigPaxosReplica* PigAt(sim::Cluster& cluster,
                                              NodeId id) {
  return static_cast<const pigpaxos::PigPaxosReplica*>(cluster.actor(id));
}

inline const epaxos::EPaxosReplica* EPaxosAt(sim::Cluster& cluster,
                                             NodeId id) {
  return static_cast<const epaxos::EPaxosReplica*>(cluster.actor(id));
}

/// Finds the current leader among `n` Paxos/PigPaxos replicas, or
/// kInvalidNode.
inline NodeId FindLeader(sim::Cluster& cluster, size_t n) {
  for (NodeId i = 0; i < n; ++i) {
    if (cluster.IsAlive(i) && PaxosAt(cluster, i)->IsLeader()) return i;
  }
  return kInvalidNode;
}

/// Asserts the paper's core safety property: no two replicas executed
/// different commands for the same slot, and all stores agree on the
/// common executed prefix. Returns an empty string when consistent.
std::string CheckLogConsistency(sim::Cluster& cluster, size_t n);

}  // namespace pig::test
