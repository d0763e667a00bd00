#include "epaxos/replica.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/logging.h"

namespace pig::epaxos {

size_t EPaxosReplica::FastQuorumSize(size_t n) {
  const size_t f = (n - 1) / 2;
  return f + (f + 1) / 2;
}

EPaxosReplica::EPaxosReplica(NodeId id, EPaxosOptions options)
    : id_(id), options_(options) {
  assert(options_.num_replicas > 0);
  assert(options_.num_replicas <= 64 && "LeaderState voter masks");
  instances_.resize(options_.num_replicas);
}

void EPaxosReplica::OnStart() {
  if (options_.retry_interval > 0 && options_.num_replicas > 1) {
    env_->SetTimer(options_.retry_interval, [this] { RetryTick(); });
  }
}

void EPaxosReplica::RetryTick() {
  if (!leading_.empty()) {
    // Sorted snapshot: hash-map order must not leak into message order.
    std::vector<InstanceId> pending;
    pending.reserve(leading_.size());
    for (const auto& [id, ls] : leading_) pending.push_back(id);
    std::sort(pending.begin(), pending.end());
    for (const InstanceId& id : pending) {
      const LeaderState& ls = leading_.find(id)->second;
      const Instance* inst = FindInstance(id);
      if (inst == nullptr || inst->status >= InstStatus::kCommitted) {
        continue;
      }
      metrics_.retries++;
      if (ls.in_accept_phase) {
        auto acc = std::make_shared<EAccept>();
        acc->ballot = inst->ballot;
        acc->inst = id;
        acc->cmd = inst->cmd;
        acc->seq = inst->seq;
        acc->deps = inst->deps;
        Broadcast(acc);
      } else {
        auto pa = std::make_shared<PreAccept>();
        pa->ballot = inst->ballot;
        pa->inst = id;
        pa->cmd = inst->cmd;
        pa->seq = inst->seq;
        pa->deps = inst->deps;
        Broadcast(pa);
      }
    }
  }
  for (auto& [id, left] : commit_recast_) {
    const Instance* inst = FindInstance(id);
    if (inst == nullptr) {
      left = 0;
      continue;
    }
    auto commit = std::make_shared<ECommit>();
    commit->inst = id;
    commit->cmd = inst->cmd;
    commit->seq = inst->seq;
    commit->deps = inst->deps;
    Broadcast(commit);
    metrics_.retries++;
    --left;
  }
  std::erase_if(commit_recast_,
                [](const auto& e) { return e.second == 0; });
  env_->SetTimer(options_.retry_interval, [this] { RetryTick(); });
}

void EPaxosReplica::OnMessage(NodeId from, const MessagePtr& msg) {
  switch (msg->type()) {
    case MsgType::kClientRequest:
      HandleClientRequest(from, static_cast<const ClientRequest&>(*msg));
      return;
    case MsgType::kPreAccept: {
      const auto& m = static_cast<const PreAccept&>(*msg);
      if (InCluster(*msg, m.inst, &m.deps)) HandlePreAccept(from, m);
      return;
    }
    case MsgType::kPreAcceptReply: {
      const auto& m = static_cast<const PreAcceptReply&>(*msg);
      if (InCluster(*msg, m.inst, &m.deps)) HandlePreAcceptReply(m);
      return;
    }
    case MsgType::kEAccept: {
      const auto& m = static_cast<const EAccept&>(*msg);
      if (InCluster(*msg, m.inst, &m.deps)) HandleEAccept(from, m);
      return;
    }
    case MsgType::kEAcceptReply: {
      const auto& m = static_cast<const EAcceptReply&>(*msg);
      if (InCluster(*msg, m.inst, nullptr)) HandleEAcceptReply(m);
      return;
    }
    case MsgType::kECommit: {
      const auto& m = static_cast<const ECommit&>(*msg);
      if (InCluster(*msg, m.inst, &m.deps)) HandleECommit(m);
      return;
    }
    default:
      PIG_LOG(kWarn) << "epaxos " << id_ << ": unexpected "
                     << msg->DebugString();
  }
}

bool EPaxosReplica::InCluster(const Message& msg, const InstanceId& inst,
                              const DepSet* deps) const {
  // instances_ is indexed by owner replica: an id outside the cluster
  // from a buggy or hostile peer must never reach Materialize or
  // FindInstance.
  auto in = [this](const InstanceId& id) {
    return id.replica < options_.num_replicas;
  };
  if (in(inst) &&
      (deps == nullptr || std::all_of(deps->begin(), deps->end(), in))) {
    return true;
  }
  PIG_LOG(kWarn) << "epaxos " << id_
                 << ": dropped message naming a replica outside the "
                    "cluster: "
                 << msg.DebugString();
  return false;
}

void EPaxosReplica::Broadcast(const MessagePtr& msg) {
  for (NodeId n = 0; n < options_.num_replicas; ++n) {
    if (n != id_) env_->Send(n, msg);
  }
}

EPaxosReplica::Instance& EPaxosReplica::Materialize(const InstanceId& id) {
  return instances_[id.replica][id.index];
}

const EPaxosReplica::Instance* EPaxosReplica::FindInstance(
    const InstanceId& id) const {
  const auto& space = instances_[id.replica];
  auto it = space.find(id.index);
  return it == space.end() ? nullptr : &it->second;
}

void EPaxosReplica::ForEachCommitted(
    const std::function<void(const InstanceId&, const Instance&)>& fn)
    const {
  for (size_t r = 0; r < instances_.size(); ++r) {
    for (const auto& [index, inst] : instances_[r]) {
      if (inst.status >= InstStatus::kCommitted) {
        fn(InstanceId{static_cast<NodeId>(r), index}, inst);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Attributes / conflict tracking

std::pair<uint64_t, DepSet> EPaxosReplica::ComputeAttributes(
    const Command& cmd, const InstanceId& self) {
  env_->ChargeCpu(options_.attr_cost);
  DepSet deps;
  uint64_t seq = 1;
  if (!cmd.IsNoop()) {
    auto it = keys_.find(cmd.key);
    if (it != keys_.end()) {
      const KeyInfo& k = it->second;
      if (k.last_write.has_value() && !(*k.last_write == self)) {
        deps.push_back(*k.last_write);
      }
      if (cmd.IsWrite()) {
        for (const InstanceId& r : k.reads_since_write) {
          if (!(r == self)) deps.push_back(r);
        }
      }
      seq = k.max_seq + 1;
    }
  }
  NormalizeDeps(deps);
  return {seq, deps};
}

void EPaxosReplica::RecordAttributes(const InstanceId& id,
                                     const Command& cmd, uint64_t seq) {
  if (cmd.IsNoop()) return;
  KeyInfo& k = keys_[cmd.key];
  k.max_seq = std::max(k.max_seq, seq);
  if (cmd.IsWrite()) {
    k.last_write = id;
    k.reads_since_write.clear();
  } else {
    if (k.reads_since_write.size() < options_.max_tracked_reads) {
      k.reads_since_write.push_back(id);
    }
  }
}

// ---------------------------------------------------------------------------
// Command-leader path

void EPaxosReplica::HandleClientRequest(NodeId from,
                                        const ClientRequest& req) {
  const Command& cmd = req.cmd;
  auto rec = client_records_.find(from);
  if (rec != client_records_.end() && cmd.seq <= rec->second.seq) {
    auto reply = std::make_shared<pig::ClientReply>();
    reply->seq = cmd.seq;
    reply->code = StatusCode::kOk;
    if (cmd.seq == rec->second.seq) reply->value = rec->second.value;
    env_->Send(from, std::move(reply));
    return;
  }
  auto pend = client_pending_.find(from);
  if (pend != client_pending_.end() && pend->second.first == cmd.seq) {
    return;  // already in flight here
  }

  metrics_.proposals++;
  InstanceId inst_id{id_, next_index_++};
  auto [seq, deps] = ComputeAttributes(cmd, inst_id);
  Instance& inst = Materialize(inst_id);
  inst.cmd = cmd;
  inst.seq = seq;
  inst.deps = deps;
  inst.status = InstStatus::kPreAccepted;
  inst.ballot = Ballot(1, id_);
  RecordAttributes(inst_id, cmd, seq);
  client_pending_[from] = {cmd.seq, inst_id};

  LeaderState ls;
  ls.max_seq = seq;
  ls.union_deps = deps;
  leading_.emplace(inst_id, std::move(ls));

  if (options_.num_replicas == 1) {
    CommitInstance(inst_id, cmd, seq, deps, /*broadcast=*/false);
    return;
  }

  auto pa = std::make_shared<PreAccept>();
  pa->ballot = inst.ballot;
  pa->inst = inst_id;
  pa->cmd = cmd;
  pa->seq = seq;
  pa->deps = deps;
  Broadcast(pa);
}

void EPaxosReplica::HandlePreAccept(NodeId from, const PreAccept& msg) {
  env_->ChargeCpu(options_.attr_cost);
  // Merge the proposer's attributes with local conflict information.
  uint64_t seq = msg.seq;
  DepSet deps = msg.deps;
  if (!msg.cmd.IsNoop()) {
    auto it = keys_.find(msg.cmd.key);
    if (it != keys_.end()) {
      const KeyInfo& k = it->second;
      seq = std::max(seq, k.max_seq + 1);
      DepSet local;
      if (k.last_write.has_value() && !(*k.last_write == msg.inst)) {
        local.push_back(*k.last_write);
      }
      if (msg.cmd.IsWrite()) {
        for (const InstanceId& r : k.reads_since_write) {
          if (!(r == msg.inst)) local.push_back(r);
        }
      }
      UnionDeps(deps, local);
    }
  }
  if (seq != msg.seq || deps != msg.deps) metrics_.conflicts++;

  Instance& inst = Materialize(msg.inst);
  if (inst.status <= InstStatus::kPreAccepted) {
    inst.cmd = msg.cmd;
    inst.seq = seq;
    inst.deps = deps;
    inst.status = InstStatus::kPreAccepted;
    inst.ballot = msg.ballot;
  } else {
    // A retried/duplicated PreAccept for an instance already past this
    // phase must not regress it; reply from the agreed state instead.
    seq = inst.seq;
    deps = inst.deps;
  }
  RecordAttributes(msg.inst, msg.cmd, seq);

  auto reply = std::make_shared<PreAcceptReply>();
  reply->sender = id_;
  reply->inst = msg.inst;
  reply->ok = true;
  reply->ballot = msg.ballot;
  reply->seq = seq;
  reply->deps = std::move(deps);
  env_->Send(from, std::move(reply));
}

void EPaxosReplica::HandlePreAcceptReply(const PreAcceptReply& msg) {
  env_->ChargeCpu(options_.attr_cost);  // dependency-union bookkeeping
  auto it = leading_.find(msg.inst);
  if (it == leading_.end()) return;  // already decided
  LeaderState& ls = it->second;
  if (ls.in_accept_phase) return;

  Instance* inst = &Materialize(msg.inst);
  if (inst->status >= InstStatus::kCommitted) return;

  const uint64_t bit = 1ull << msg.sender;
  if (ls.preaccept_mask & bit) return;  // duplicated delivery
  ls.preaccept_mask |= bit;
  if (msg.seq != inst->seq || msg.deps != inst->deps) {
    ls.attrs_unchanged = false;
  }
  ls.max_seq = std::max(ls.max_seq, msg.seq);
  UnionDeps(ls.union_deps, msg.deps);

  const size_t fast_q = FastQuorumSize(options_.num_replicas);
  if (static_cast<size_t>(std::popcount(ls.preaccept_mask)) + 1 < fast_q) {
    return;
  }

  if (ls.attrs_unchanged) {
    metrics_.fast_path_commits++;
    CommitInstance(msg.inst, inst->cmd, inst->seq, inst->deps,
                   /*broadcast=*/true);
    return;
  }

  // Slow path: Paxos-Accept on the union attributes.
  ls.in_accept_phase = true;
  ls.accept_mask = 0;
  inst->seq = std::max(ls.max_seq, inst->seq);
  inst->deps = ls.union_deps;
  inst->status = InstStatus::kAccepted;
  RecordAttributes(msg.inst, inst->cmd, inst->seq);

  auto acc = std::make_shared<EAccept>();
  acc->ballot = inst->ballot;
  acc->inst = msg.inst;
  acc->cmd = inst->cmd;
  acc->seq = inst->seq;
  acc->deps = inst->deps;
  Broadcast(acc);
}

void EPaxosReplica::HandleEAccept(NodeId from, const EAccept& msg) {
  env_->ChargeCpu(options_.attr_cost);
  Instance& inst = Materialize(msg.inst);
  if (inst.status < InstStatus::kCommitted) {
    inst.cmd = msg.cmd;
    inst.seq = msg.seq;
    inst.deps = msg.deps;
    inst.status = InstStatus::kAccepted;
    inst.ballot = msg.ballot;
  }
  RecordAttributes(msg.inst, msg.cmd, msg.seq);

  auto reply = std::make_shared<EAcceptReply>();
  reply->sender = id_;
  reply->inst = msg.inst;
  reply->ok = true;
  reply->ballot = msg.ballot;
  env_->Send(from, std::move(reply));
}

void EPaxosReplica::HandleEAcceptReply(const EAcceptReply& msg) {
  auto it = leading_.find(msg.inst);
  if (it == leading_.end()) return;
  LeaderState& ls = it->second;
  if (!ls.in_accept_phase) return;
  const uint64_t bit = 1ull << msg.sender;
  if (ls.accept_mask & bit) return;  // duplicated delivery
  ls.accept_mask |= bit;
  if (static_cast<size_t>(std::popcount(ls.accept_mask)) + 1 <
      SlowQuorumSize(options_.num_replicas)) {
    return;
  }

  Instance& inst = Materialize(msg.inst);
  metrics_.slow_path_commits++;
  CommitInstance(msg.inst, inst.cmd, inst.seq, inst.deps,
                 /*broadcast=*/true);
}

// ---------------------------------------------------------------------------
// Commit + execution

void EPaxosReplica::CommitInstance(const InstanceId& id, const Command& cmd,
                                   uint64_t seq, const DepSet& deps,
                                   bool broadcast) {
  Instance& inst = Materialize(id);
  if (inst.status >= InstStatus::kCommitted) return;
  inst.cmd = cmd;
  inst.seq = seq;
  inst.deps = deps;
  inst.status = InstStatus::kCommitted;
  metrics_.commits++;
  leading_.erase(id);
  RecordAttributes(id, cmd, seq);

  if (broadcast) {
    auto commit = std::make_shared<ECommit>();
    commit->inst = id;
    commit->cmd = cmd;
    commit->seq = seq;
    commit->deps = deps;
    Broadcast(commit);
    if (options_.retry_interval > 0 && options_.commit_rebroadcasts > 0) {
      commit_recast_.emplace_back(id, options_.commit_rebroadcasts);
    }
  }

  exec_pending_.insert(id);
  TryExecute(id);
  WakeWaiters(id);
}

void EPaxosReplica::HandleECommit(const ECommit& msg) {
  env_->ChargeCpu(options_.attr_cost);
  CommitInstance(msg.inst, msg.cmd, msg.seq, msg.deps, /*broadcast=*/false);
}

void EPaxosReplica::WakeWaiters(const InstanceId& id) {
  auto it = waiters_.find(id);
  if (it == waiters_.end()) return;
  std::vector<InstanceId> waiting = std::move(it->second);
  waiters_.erase(it);
  for (const InstanceId& w : waiting) TryExecute(w);
}

void EPaxosReplica::TryExecute(const InstanceId& root) {
  {
    const Instance* r = FindInstance(root);
    if (r == nullptr || r->status != InstStatus::kCommitted) return;
  }

  // Phase 1: collect the committed-unexecuted closure; defer if any
  // transitive dependency is not committed yet.
  std::unordered_set<InstanceId, InstanceIdHash> visited;
  std::vector<InstanceId> dfs{root};
  size_t edges = 0;
  while (!dfs.empty()) {
    InstanceId id = dfs.back();
    dfs.pop_back();
    if (visited.count(id)) continue;
    const Instance* inst = FindInstance(id);
    if (inst == nullptr || inst->status < InstStatus::kCommitted) {
      metrics_.deferred_executions++;
      waiters_[id].push_back(root);
      env_->ChargeCpu(options_.exec_node_cost *
                          static_cast<TimeNs>(visited.size() + 1) +
                      options_.exec_edge_cost * static_cast<TimeNs>(edges));
      return;
    }
    if (inst->status == InstStatus::kExecuted) continue;
    visited.insert(id);
    for (const InstanceId& d : inst->deps) {
      edges++;
      if (!visited.count(d)) dfs.push_back(d);
    }
  }
  env_->ChargeCpu(
      options_.exec_node_cost * static_cast<TimeNs>(visited.size()) +
      options_.exec_edge_cost * static_cast<TimeNs>(edges));

  // Phase 2: iterative Tarjan over the closure. SCCs are emitted in
  // dependencies-first order; members execute in seq order.
  std::unordered_map<InstanceId, int, InstanceIdHash> index, lowlink;
  std::unordered_set<InstanceId, InstanceIdHash> on_stack;
  std::vector<InstanceId> scc_stack;
  int next_index = 0;

  struct Frame {
    InstanceId id;
    size_t dep_idx = 0;
  };

  for (const InstanceId& start : visited) {
    if (index.count(start)) continue;
    std::vector<Frame> frames{{start, 0}};
    index[start] = lowlink[start] = next_index++;
    scc_stack.push_back(start);
    on_stack.insert(start);

    while (!frames.empty()) {
      Frame& f = frames.back();
      const Instance* inst = FindInstance(f.id);
      bool descended = false;
      while (f.dep_idx < inst->deps.size()) {
        const InstanceId& d = inst->deps[f.dep_idx++];
        if (!visited.count(d)) continue;  // executed or outside closure
        auto dit = index.find(d);
        if (dit == index.end()) {
          index[d] = lowlink[d] = next_index++;
          scc_stack.push_back(d);
          on_stack.insert(d);
          frames.push_back(Frame{d, 0});
          descended = true;
          break;
        }
        if (on_stack.count(d)) {
          lowlink[f.id] = std::min(lowlink[f.id], dit->second);
        }
      }
      if (descended) continue;

      // Node finished.
      if (lowlink[f.id] == index[f.id]) {
        std::vector<InstanceId> scc;
        for (;;) {
          InstanceId top = scc_stack.back();
          scc_stack.pop_back();
          on_stack.erase(top);
          scc.push_back(top);
          if (top == f.id) break;
        }
        std::sort(scc.begin(), scc.end(),
                  [this](const InstanceId& a, const InstanceId& b) {
                    const Instance* ia = FindInstance(a);
                    const Instance* ib = FindInstance(b);
                    if (ia->seq != ib->seq) return ia->seq < ib->seq;
                    return a < b;
                  });
        for (const InstanceId& id : scc) {
          Instance& to_run = Materialize(id);
          if (to_run.status == InstStatus::kCommitted) {
            ExecuteInstance(id, to_run);
          }
        }
      }
      InstanceId done = f.id;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().id] =
            std::min(lowlink[frames.back().id], lowlink[done]);
      }
    }
  }
}

bool EPaxosReplica::MarkApplied(NodeId client, uint64_t seq) {
  AppliedWindow& w = applied_[client];
  if (!w.seqs.insert(seq).second) return false;
  if (seq > w.max_seq) w.max_seq = seq;
  if (w.seqs.size() > 8192 && w.max_seq > 4096) {
    const uint64_t floor = w.max_seq - 4096;
    std::erase_if(w.seqs, [floor](uint64_t s) { return s < floor; });
  }
  return true;
}

void EPaxosReplica::ExecuteInstance(const InstanceId& id, Instance& inst) {
  inst.status = InstStatus::kExecuted;
  metrics_.executions++;
  exec_pending_.erase(id);

  const Command& cmd = inst.cmd;
  const bool tracked = !cmd.IsNoop() && cmd.client != kInvalidNode;
  if (tracked && !MarkApplied(cmd.client, cmd.seq)) {
    // Second committed instance of a resent command (the client timed
    // out and re-issued at another replica): the state machine must see
    // it exactly once. Still ack when we lead this duplicate — the
    // client is waiting on precisely this resend.
    metrics_.dup_exec_skips++;
    if (id.replica == id_) {
      auto pend = client_pending_.find(cmd.client);
      if (pend != client_pending_.end() && pend->second.first <= cmd.seq) {
        client_pending_.erase(pend);
      }
      const ClientRecord& rec = client_records_[cmd.client];
      auto reply = std::make_shared<pig::ClientReply>();
      reply->seq = cmd.seq;
      reply->code = StatusCode::kOk;
      if (rec.seq == cmd.seq) reply->value = rec.value;
      env_->Send(cmd.client, std::move(reply));
    }
    return;
  }

  std::string value = store_.Apply(cmd);
  if (tracked) {
    // Every replica keeps the record (any of them can field the client's
    // next retry); only the instance owner replies.
    ClientRecord& rec = client_records_[cmd.client];
    if (cmd.seq > rec.seq) {
      rec.seq = cmd.seq;
      rec.value = value;
    }
  }
  if (id.replica == id_ && tracked) {
    auto pend = client_pending_.find(cmd.client);
    if (pend != client_pending_.end() && pend->second.first <= cmd.seq) {
      client_pending_.erase(pend);
    }
    auto reply = std::make_shared<pig::ClientReply>();
    reply->seq = cmd.seq;
    reply->code = StatusCode::kOk;
    reply->value = std::move(value);
    env_->Send(cmd.client, std::move(reply));
  }
}

}  // namespace pig::epaxos
