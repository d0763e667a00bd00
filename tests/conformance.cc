#include "conformance.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "harness/replica_spec.h"
#include "harness/scenario.h"
#include "linearizability.h"
#include "shard/messages.h"
#include "shard/router.h"
#include "shard/sharded_node.h"
#include "statemachine/batch.h"
#include "storage/mem_storage.h"
#include "test_util.h"

namespace pig::test {
namespace {

// ---------------------------------------------------------------------------
// History-recording closed-loop client. Writes carry globally unique
// values ("c<idx>#<seq>") so the linearizability checker can match reads
// to writes; timeouts resend the same command (replica dedup makes that
// safe) and redirects follow the leader hint.

class HistoryClient : public Actor {
 public:
  struct Config {
    size_t num_replicas = 0;
    size_t num_keys = 8;
    double read_ratio = 0.5;
    TimeNs request_timeout = 250 * kMillisecond;
    uint32_t index = 0;
    uint32_t num_groups = 1;
    /// Leaderless protocol (EPaxos): clients spread their initial target
    /// across the replicas instead of converging on a single leader.
    bool leaderless = false;
  };

  explicit HistoryClient(Config cfg) : cfg_(cfg) {
    if (cfg_.num_groups > 1) {
      router_ = std::make_unique<shard::ShardRouter>(cfg_.num_groups,
                                                     cfg_.num_replicas);
    }
  }

  void OnStart() override {
    target_ = cfg_.leaderless
                  ? static_cast<NodeId>(cfg_.index % cfg_.num_replicas)
                  : 0;
    env_->SetTimer(
        static_cast<TimeNs>(env_->rng().NextBounded(5 * kMillisecond)),
        [this]() { IssueNext(); });
  }

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    const Message* payload = msg.get();
    MessagePtr inner;  // keeps an unwrapped payload alive past `msg`
    if (router_ != nullptr) {
      // Sharded replicas answer through ShardEnvelopes only.
      if (msg->type() != MsgType::kShardEnvelope) return;
      const auto& env = static_cast<const shard::ShardEnvelope&>(*msg);
      if (env.inner == nullptr || env.group >= cfg_.num_groups) return;
      inner = env.inner;
      payload = inner.get();
      router_->NoteReply(env.group, from);
    }
    if (payload->type() != MsgType::kClientReply) return;
    const auto& r = static_cast<const ClientReply&>(*payload);
    if (r.seq != seq_) return;  // stale duplicate for a completed request
    if (r.code == StatusCode::kNotLeader) {
      if (router_ != nullptr) {
        router_->NoteRedirect(current_group_, r.leader_hint);
      } else if (r.leader_hint != kInvalidNode && r.leader_hint != target_) {
        target_ = r.leader_hint;
      } else {
        target_ = (target_ + 1) % cfg_.num_replicas;
      }
      if (backoff_pending_) return;
      backoff_pending_ = true;
      env_->SetTimer(kMillisecond, [this, s = seq_]() {
        backoff_pending_ = false;
        if (s == seq_) SendCurrent();
      });
      return;
    }
    if (r.code != StatusCode::kOk) return;
    HistoryOp op;
    op.client = env_->self();
    op.is_read = current_.op == OpType::kGet;
    op.key = current_.key;
    op.value = op.is_read ? r.value : current_.value;
    op.invoked = invoked_at_;
    op.completed = env_->Now();
    history.push_back(op);
    if (!op.is_read) acked_write_seqs.push_back(seq_);
    IssueNext();
  }

  /// Stops issuing (and re-sending): called before the final drain so
  /// replicas can converge with no in-flight tail at check time.
  void Stop() { stopped_ = true; }

  std::vector<HistoryOp> history;
  std::vector<uint64_t> acked_write_seqs;

 private:
  void IssueNext() {
    // Retire the completed seq BEFORE the stopped check: a duplicated
    // (or dedup-cache re-sent) ClientReply for the final pre-Stop
    // command must not match seq_ again, or the completion is recorded
    // twice and the history grows a duplicate write value.
    ++seq_;
    if (stopped_) return;
    const std::string key =
        "k" + std::to_string(env_->rng().NextBounded(cfg_.num_keys));
    const bool read = env_->rng().NextDouble() < cfg_.read_ratio;
    if (read) {
      current_ = Command::Get(key, env_->self(), seq_);
    } else {
      current_ = Command::Put(
          key, "c" + std::to_string(cfg_.index) + "#" + std::to_string(seq_),
          env_->self(), seq_);
    }
    invoked_at_ = env_->Now();
    if (router_ != nullptr) {
      current_group_ = shard::GroupOfCommand(current_, cfg_.num_groups);
    }
    SendCurrent();
  }

  void SendCurrent() {
    if (stopped_) return;
    if (router_ != nullptr) {
      env_->Send(router_->Target(current_group_),
                 std::make_shared<shard::ShardEnvelope>(
                     current_group_,
                     std::make_shared<ClientRequest>(current_)));
    } else {
      env_->Send(target_, std::make_shared<ClientRequest>(current_));
    }
    env_->SetTimer(cfg_.request_timeout, [this, s = seq_]() {
      if (s != seq_) return;  // completed in the meantime
      if (router_ != nullptr) {
        router_->NoteSilence(current_group_);
      } else {
        target_ = (target_ + 1) % cfg_.num_replicas;
      }
      SendCurrent();
    });
  }

  Config cfg_;
  uint64_t seq_ = 0;
  Command current_;
  TimeNs invoked_at_ = 0;
  NodeId target_ = 0;
  std::unique_ptr<shard::ShardRouter> router_;  // sharded mode only
  uint32_t current_group_ = 0;
  bool backoff_pending_ = false;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Cluster construction

/// Per-(node, group) in-memory fault-injecting storage for durability
/// runs. Owned by RunConformance, shared by initial construction and
/// every crash-with-disk rebuild of the same node.
struct StorageBank {
  std::vector<std::vector<std::unique_ptr<storage::MemStorage>>> stores;

  void Init(size_t nodes, uint32_t groups) {
    stores.clear();
    stores.resize(nodes);
    for (auto& per_node : stores) {
      for (uint32_t g = 0; g < groups; ++g) {
        per_node.push_back(std::make_unique<storage::MemStorage>());
      }
    }
  }
  storage::MemStorage* at(NodeId i, uint32_t g) {
    return stores[i][g].get();
  }
  /// Node i's per-group storage lookup for harness::MakeNode (memory
  /// only when the bank is empty).
  std::function<storage::Storage*(uint32_t)> For(NodeId i) {
    if (stores.empty()) return {};
    return [this, i](uint32_t g) { return at(i, g); };
  }
};

std::vector<HistoryClient*> AddClients(sim::Cluster& cluster,
                                       const ConformanceConfig& cfg) {
  std::vector<HistoryClient*> clients;
  for (uint32_t i = 0; i < cfg.num_clients; ++i) {
    HistoryClient::Config ccfg;
    ccfg.num_replicas = cfg.replica.num_replicas;
    ccfg.num_keys = cfg.num_keys;
    ccfg.read_ratio = cfg.read_ratio;
    ccfg.index = i;
    ccfg.num_groups = cfg.replica.num_groups;
    ccfg.leaderless = cfg.replica.protocol == harness::Protocol::kEPaxos;
    auto owner = std::make_unique<HistoryClient>(ccfg);
    clients.push_back(owner.get());
    cluster.AddClient(sim::Cluster::MakeClientId(i), std::move(owner));
  }
  return clients;
}

// ---------------------------------------------------------------------------
// Invariant checking (shared by the randomized runs and the scripted
// fault scenario).

/// The group-g Paxos view of node `id`: the actor itself in classic
/// runs, the hosted group replica in sharded ones.
const paxos::PaxosReplica* GroupPaxosAt(sim::Cluster& cluster,
                                        const ConformanceConfig& cfg,
                                        NodeId id, uint32_t g) {
  if (cfg.replica.num_groups <= 1) return PaxosAt(cluster, id);
  return static_cast<const paxos::PaxosReplica*>(
      static_cast<shard::ShardedNode*>(cluster.actor(id))->group_actor(g));
}

/// Leaderless invariant set (EPaxos). There is no log or leader;
/// agreement is per *instance*: two replicas that both committed an
/// instance must agree on its command and final attributes, dependency
/// execution must have drained everywhere, and all stores must converge.
/// Exactly-once and no-lost-ack run against the union of committed
/// instances across replicas.
std::string CheckEPaxosInvariants(sim::Cluster& cluster,
                                  const ConformanceConfig& cfg,
                                  const std::vector<HistoryClient*>& clients,
                                  ConformanceResult* result) {
  const size_t n = cfg.replica.num_replicas;
  for (auto* c : clients) {
    result->completed_ops += c->history.size();
    result->acked_writes += c->acked_write_seqs.size();
  }

  using epaxos::DepSet;
  using epaxos::EPaxosReplica;
  using epaxos::InstanceId;
  struct Committed {
    Command cmd;
    uint64_t seq = 0;
    DepSet deps;
    NodeId first_seen = kInvalidNode;
  };
  // (owner replica, instance index) -> first-seen committed value.
  std::map<std::pair<NodeId, uint64_t>, Committed> canon;
  std::string violation;
  for (NodeId i = 0; i < n; ++i) {
    EPaxosAt(cluster, i)->ForEachCommitted(
        [&](const InstanceId& id, const EPaxosReplica::Instance& inst) {
          if (!violation.empty()) return;
          DepSet deps = inst.deps;
          std::sort(deps.begin(), deps.end());
          auto [it, fresh] = canon.try_emplace(
              std::make_pair(id.replica, id.index),
              Committed{inst.cmd, inst.seq, deps, i});
          if (fresh) return;
          const Committed& c = it->second;
          if (!(c.cmd == inst.cmd) || c.seq != inst.seq ||
              c.deps != deps) {
            std::ostringstream msg;
            msg << "instance disagreement: " << id.replica << "."
                << id.index << ": replica " << c.first_seen
                << " committed " << c.cmd.DebugString() << " seq " << c.seq
                << " but replica " << i << " committed "
                << inst.cmd.DebugString() << " seq " << inst.seq;
            violation = msg.str();
          }
        });
  }
  if (!violation.empty()) return violation;

  // Dependency execution drained: nothing committed may still be
  // waiting on an uncommitted dependency after the healed quiesce.
  for (NodeId i = 0; i < n; ++i) {
    const size_t stuck = EPaxosAt(cluster, i)->committed_unexecuted();
    if (stuck > 0) {
      return "replica " + std::to_string(i) + " still has " +
             std::to_string(stuck) +
             " committed-unexecuted instances after quiesce";
    }
  }

  // Store convergence across ALL replicas (leaderless: no reference
  // node is special, so replica 0's store is the arbitrary baseline).
  const auto reference = EPaxosAt(cluster, 0)->store().Dump();
  for (NodeId i = 1; i < n; ++i) {
    if (EPaxosAt(cluster, i)->store().Dump() != reference) {
      return "stores diverged at replica " + std::to_string(i);
    }
  }

  // Exactly-once: per key, the store version must equal the number of
  // distinct committed (client, seq) writes — a client resend that
  // committed in TWO instances must still apply once (dup_exec_skips).
  std::map<std::pair<NodeId, uint64_t>, int> committed;
  std::map<std::string, uint64_t> distinct_writes_per_key;
  for (const auto& [id, c] : canon) {
    (void)id;
    if (c.cmd.IsNoop() || c.cmd.client == kInvalidNode) continue;
    int& count = committed[{c.cmd.client, c.cmd.seq}];
    count++;
    if (count == 1 && c.cmd.IsWrite()) distinct_writes_per_key[c.cmd.key]++;
  }
  result->committed_commands = committed.size();
  for (const auto& [key, writes] : distinct_writes_per_key) {
    const uint64_t version = EPaxosAt(cluster, 0)->store().VersionOf(key);
    if (version != writes) {
      std::ostringstream msg;
      msg << "key " << key << ": " << writes
          << " distinct committed writes but store version " << version
          << " (duplicate or lost apply)";
      return msg.str();
    }
  }

  // Linearizability of the merged client-visible history.
  std::vector<HistoryOp> history;
  for (auto* c : clients) {
    history.insert(history.end(), c->history.begin(), c->history.end());
  }
  std::string lin = CheckLinearizability(history);
  if (!lin.empty()) return "linearizability: " + lin;

  // No lost command: every acknowledged write committed in SOME instance.
  for (auto* c : clients) {
    for (uint64_t seq : c->acked_write_seqs) {
      NodeId id = c->history.empty() ? kInvalidNode : c->history[0].client;
      if (id == kInvalidNode) continue;
      if (committed.find({id, seq}) == committed.end()) {
        return "acknowledged write c" + std::to_string(id) + "#" +
               std::to_string(seq) + " missing from committed instances";
      }
    }
  }
  return "";
}

std::string CheckInvariants(sim::Cluster& cluster,
                            const ConformanceConfig& cfg,
                            const std::vector<HistoryClient*>& clients,
                            ConformanceResult* result) {
  if (cfg.replica.protocol == harness::Protocol::kEPaxos) {
    return CheckEPaxosInvariants(cluster, cfg, clients, result);
  }
  const size_t n = cfg.replica.num_replicas;
  const uint32_t groups = std::max<uint32_t>(1, cfg.replica.num_groups);
  for (auto* c : clients) {
    result->completed_ops += c->history.size();
    result->acked_writes += c->acked_write_seqs.size();
  }

  // The group-scoped invariants, once per consensus group (the classic
  // run is the one-group special case). (client,seq) commit counts
  // accumulate across groups: a command must commit in exactly one.
  std::map<std::pair<NodeId, uint64_t>, int> committed;
  // Set when any group leader's log starts above slot 0 (compaction or a
  // snapshot install): the prefix scan is partial then, so the version
  // and lost-ack accounting below would undercount and must be skipped.
  bool any_compacted = false;
  for (uint32_t g = 0; g < groups; ++g) {
    const std::string tag =
        groups > 1 ? " (group " + std::to_string(g) + ")" : "";

    NodeId leader = kInvalidNode;
    for (NodeId i = 0; i < n; ++i) {
      if (cluster.IsAlive(i) &&
          GroupPaxosAt(cluster, cfg, i, g)->IsLeader()) {
        leader = i;
        break;
      }
    }
    if (leader == kInvalidNode) return "no leader after quiesce" + tag;

    // Log-prefix agreement: no slot committed differently anywhere.
    for (NodeId a = 0; a < n; ++a) {
      const auto& la = GroupPaxosAt(cluster, cfg, a, g)->log();
      for (NodeId b = a + 1; b < n; ++b) {
        const auto& lb = GroupPaxosAt(cluster, cfg, b, g)->log();
        const SlotId lo = std::max(la.first_slot(), lb.first_slot());
        const SlotId hi = std::min(la.last_slot(), lb.last_slot());
        for (SlotId s = lo; s <= hi; ++s) {
          const LogEntry* ea = la.Get(s);
          const LogEntry* eb = lb.Get(s);
          if (ea == nullptr || eb == nullptr) continue;
          if (ea->committed && eb->committed &&
              !(ea->command == eb->command)) {
            std::ostringstream msg;
            msg << "log disagreement" << tag << ": slot " << s
                << ": replica " << a << " committed "
                << ea->command.DebugString() << " but replica " << b
                << " committed " << eb->command.DebugString();
            return msg.str();
          }
        }
      }
    }

    // Convergence: after the quiesce every live store matches the
    // leader's (crashed replicas legitimately lag — but their *logs*
    // are still held to the agreement check above).
    auto reference = GroupPaxosAt(cluster, cfg, leader, g)->store().Dump();
    for (NodeId i = 0; i < n; ++i) {
      if (!cluster.IsAlive(i) || i == leader) continue;
      if (GroupPaxosAt(cluster, cfg, i, g)->store().Dump() != reference) {
        return "stores diverged at replica " + std::to_string(i) + tag;
      }
    }

    // Committed-prefix holes must never survive compaction + sync, on
    // ANY live replica: a new leader that compacted below a settled slot
    // must close the gap via state transfer, not leave it (or worse,
    // noop-plug it — that shows up as log disagreement above).
    for (NodeId i = 0; i < n; ++i) {
      if (!cluster.IsAlive(i)) continue;
      const auto& li = GroupPaxosAt(cluster, cfg, i, g)->log();
      const SlotId lci = li.ContiguousCommitIndex();
      for (SlotId s = li.first_slot(); s <= lci; ++s) {
        const LogEntry* e = li.Get(s);
        if (e == nullptr || !e->committed) {
          return "hole at slot " + std::to_string(s) +
                 " inside replica " + std::to_string(i) +
                 "'s committed prefix" + tag;
        }
      }
    }

    // Scan the group leader's contiguous committed prefix.
    const auto* lead = GroupPaxosAt(cluster, cfg, leader, g);
    const ReplicatedLog& log = lead->log();
    const SlotId ci = log.ContiguousCommitIndex();
    any_compacted = any_compacted || log.first_slot() > 0;
    std::map<std::string, uint64_t> distinct_writes_per_key;
    std::string membership;
    for (SlotId s = log.first_slot(); s <= ci; ++s) {
      const LogEntry* e = log.Get(s);
      if (e == nullptr || !e->committed) {
        return "hole at slot " + std::to_string(s) +
               " inside the committed prefix" + tag;
      }
      ForEachCommand(e->command, [&](const Command& c) {
        if (c.IsNoop() || c.client == kInvalidNode) return;
        // Membership: every committed command — batch sub-commands
        // included — must belong to the group its key hashes to.
        if (groups > 1 && membership.empty() &&
            shard::GroupOfKey(c.key, groups) != g) {
          membership = "key " + c.key + " committed in group " +
                       std::to_string(g) + " but hashes to group " +
                       std::to_string(shard::GroupOfKey(c.key, groups));
        }
        int& count = committed[{c.client, c.seq}];
        count++;
        if (count == 1 && c.IsWrite()) distinct_writes_per_key[c.key]++;
      });
    }
    if (!membership.empty()) return membership;
    for (NodeId i = 0; i < n; ++i) {
      result->batches_proposed +=
          GroupPaxosAt(cluster, cfg, i, g)->metrics().batches_proposed;
    }

    // No duplicated command: a write applied twice bumps the key's
    // version past the number of distinct committed writes; one skipped
    // falls short. (The log may legally hold a (client,seq) in two
    // slots after failover; execution must still be exactly-once.)
    // Vacuous once the prefix scan is partial: compacted writes are
    // counted in the version but invisible to the scan.
    if (log.first_slot() == 0) {
      for (const auto& [key, writes] : distinct_writes_per_key) {
        const uint64_t version = lead->store().VersionOf(key);
        if (version != writes) {
          std::ostringstream msg;
          msg << "key " << key << ": " << writes
              << " distinct committed writes but store version " << version
              << " (duplicate or lost apply)" << tag;
          return msg.str();
        }
      }
    }
  }
  result->committed_commands = committed.size();

  // Linearizability of the merged client-visible history (sound across
  // groups too: the keyspace partition is disjoint and every checker
  // axiom is per-key).
  std::vector<HistoryOp> history;
  for (auto* c : clients) {
    history.insert(history.end(), c->history.begin(), c->history.end());
  }
  std::string lin = CheckLinearizability(history);
  if (!lin.empty()) return "linearizability: " + lin;

  // No lost command: every acknowledged write is in the committed prefix.
  // Skipped when a scan was partial — a compacted ack is not a lost ack
  // (store convergence and linearizability still cover those runs).
  if (any_compacted) return "";
  for (auto* c : clients) {
    for (uint64_t seq : c->acked_write_seqs) {
      // HistoryClient i registered as MakeClientId(i); recover the id
      // from its recorded history (all ops share one client id).
      NodeId id = c->history.empty() ? kInvalidNode : c->history[0].client;
      if (id == kInvalidNode) continue;
      if (committed.find({id, seq}) == committed.end()) {
        return "acknowledged write c" + std::to_string(id) + "#" +
               std::to_string(seq) + " missing from the committed prefix";
      }
    }
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------

harness::ReplicaSpec ConformanceSpec() {
  harness::ReplicaSpec spec;
  spec.protocol = harness::Protocol::kPigPaxos;
  spec.num_replicas = 5;
  spec.paxos.compaction_window = 1u << 30;
  spec.pig.num_relay_groups = 2;
  spec.pig.relay_timeout = 20 * kMillisecond;
  return spec;
}

ConformanceResult RunConformance(const ConformanceConfig& cfg,
                                 uint64_t seed) {
  sim::ClusterOptions copt;
  copt.seed = seed;
  copt.network.drop_probability = cfg.drop_probability;
  harness::ScenarioRuntime scenario_rt;
  const size_t n = cfg.replica.num_replicas;
  const uint32_t groups = std::max<uint32_t>(1, cfg.replica.num_groups);
  const bool epaxos = cfg.replica.protocol == harness::Protocol::kEPaxos;
  if (cfg.scripted()) {
    scenario_rt = harness::PrepareScenario(cfg.scenario, n);
    if (scenario_rt.latency) copt.network.latency = scenario_rt.latency;
  }
  // The bank outlives the cluster: replicas (including rebuilt ones)
  // hold raw pointers into it.
  StorageBank bank;
  const bool with_disk = cfg.disk != DiskMode::kNone;
  sim::Cluster cluster(copt);
  if (with_disk) {
    bank.Init(n, groups);
    cluster.SetRebuildHook([&cfg, &bank, groups](NodeId id, bool lose_disk) {
      for (uint32_t g = 0; g < groups; ++g) {
        // kill -9 semantics: appends after the last Sync barrier never
        // reached disk; a lost disk loses everything.
        if (lose_disk) {
          bank.at(id, g)->WipeAll();
        } else {
          bank.at(id, g)->DropUnsynced();
        }
      }
      return harness::MakeNode(cfg.replica, id, bank.For(id));
    });
  }
  // With a bank, each hosted replica recovers from its MemStorage in its
  // constructor — the same path a rebuilt node takes after CrashWithDisk.
  for (NodeId i = 0; i < n; ++i) {
    cluster.AddReplica(i, harness::MakeNode(cfg.replica, i, bank.For(i)));
  }
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.Start();

  // Let the bootstrap leader settle before the abuse starts.
  cluster.RunFor(150 * kMillisecond);

  if (cfg.scripted()) {
    // Scripted scenario: the spec's fault events, offset by the settle
    // phase, replace the randomized chaos rounds. HealScenario then
    // undoes every scripted condition (crashes, partitions, links, gray
    // slowdowns) so the common quiesce below starts clean.
    harness::ScenarioSpec shifted = cfg.scenario;
    const TimeNs base = cluster.Now();
    TimeNs last = base;
    for (harness::FaultEvent& e : shifted.schedule) {
      e.at += base;
      last = std::max(last, e.at);
    }
    harness::ScheduleScenario(shifted, scenario_rt, cluster);
    cluster.RunUntil(last + cfg.scripted_tail);
    harness::HealScenario(shifted, scenario_rt, cluster, n);
  } else {
    const size_t max_down = (n - 1) / 2;  // a majority always stays up
    Rng chaos(seed * 7919 + 0x5bd1e995);
    std::vector<bool> down(n, false);
    size_t num_down = 0;
    bool disk_lost = false;  // kLosingDisk's one-replacement budget
    for (int round = 0; round < cfg.chaos_rounds; ++round) {
      const uint64_t dice = chaos.NextBounded(100);
      // EPaxos rows take partitions and heals only: crash recovery needs
      // explicit prepare (not implemented) and there are no elections.
      if (dice < 30) {
        if (!epaxos && num_down < max_down) {
          NodeId victim = static_cast<NodeId>(chaos.NextBounded(n));
          if (!down[victim]) {
            switch (cfg.disk) {
              case DiskMode::kNone:
                cluster.Crash(victim);
                break;
              case DiskMode::kWithDisk:
                cluster.CrashWithDisk(victim);
                break;
              case DiskMode::kLosingDisk:
                if (!disk_lost) {
                  cluster.CrashLosingDisk(victim);
                  disk_lost = true;
                } else {
                  cluster.CrashWithDisk(victim);
                }
                break;
            }
            down[victim] = true;
            num_down++;
          }
        }
      } else if (dice < 50) {
        if (num_down > 0) {
          NodeId pick = static_cast<NodeId>(chaos.NextBounded(n));
          for (size_t step = 0; step < n; ++step) {
            NodeId i = static_cast<NodeId>((pick + step) % n);
            if (down[i]) {
              cluster.Recover(i);
              down[i] = false;
              num_down--;
              break;
            }
          }
        }
      } else if (dice < 65) {
        for (NodeId i = 0; i < n; ++i) {
          cluster.network().SetPartitionGroup(
              i, static_cast<int>(chaos.NextBounded(2)));
        }
      } else if (dice < 75) {
        cluster.network().HealPartitions();
      } else if (dice < 85) {
        NodeId who = static_cast<NodeId>(chaos.NextBounded(n));
        if (!epaxos && !down[who]) {
          if (groups > 1) {
            // Churn one random group's leadership; the others must ride
            // through untouched.
            auto* node =
                static_cast<shard::ShardedNode*>(cluster.actor(who));
            const size_t g = chaos.NextBounded(groups);
            static_cast<paxos::PaxosReplica*>(node->group_actor(g))
                ->TriggerElection();
          } else {
            static_cast<paxos::PaxosReplica*>(cluster.actor(who))
                ->TriggerElection();
          }
        }
      }  // else: a calm round
      cluster.RunFor(cfg.round_length);
    }
    for (NodeId i = 0; i < n; ++i) {
      if (down[i]) cluster.Recover(i);
    }
  }

  // Heal everything and quiesce: drop partitions and message loss, let
  // traffic flow cleanly for a while, then stop the clients and drain so
  // replicas converge with no in-flight tail.
  cluster.network().HealPartitions();
  cluster.network().set_drop_probability(0);
  cluster.RunFor(cfg.quiesce / 2);
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(cfg.quiesce / 2);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  if (result.violation.empty() && result.completed_ops == 0) {
    result.violation = "no client operation completed (liveness)";
  }
  return result;
}

ConformanceResult RunDuplicateVoteFaultScenario(uint64_t seed,
                                                bool inject_fault) {
  // 5 nodes, contiguous groups {1,2} / {3,4}, overlap 1 -> {1,2,3} and
  // {3,4,1}: node 1 sits in both groups, so with 2,3,4 crashed every
  // retried fan-out eventually reaches node 1 twice. Leader + node 1 is
  // only 2 of the 3 votes quorum needs — unless the reverted dedup
  // counts the duplicate, fabricating a commit that phase 2 then loses.
  ConformanceConfig cfg;
  cfg.name = "duplicate-vote-fault";
  cfg.num_clients = 1;
  cfg.num_keys = 1;
  cfg.read_ratio = 0.0;  // writes only: every ack must survive
  paxos::PaxosOptions& paxos = cfg.replica.paxos;
  paxos.test_fault_count_duplicate_votes = inject_fault;
  // Keep follower 1 from starting elections while the majority is down
  // (2 live nodes can elect nobody), and retry proposals fast so the
  // duplicate-vote path gets exercised quickly.
  paxos.election_timeout_min = 600 * kMillisecond;
  paxos.election_timeout_max = 900 * kMillisecond;
  paxos.propose_retry_timeout = 100 * kMillisecond;
  cfg.replica.pig.group_overlap = 1;

  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  AddReplicas(cluster, cfg.replica);
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.Start();
  cluster.RunFor(150 * kMillisecond);

  // Phase 1: majority down; only duplicate votes could commit anything
  // beyond the pre-crash baseline.
  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  const size_t baseline_acked = clients[0]->acked_write_seqs.size();
  for (int i = 0;
       i < 15 && clients[0]->acked_write_seqs.size() == baseline_acked;
       ++i) {
    cluster.RunFor(200 * kMillisecond);
  }

  // Phase 2: lose the fake-quorum participants for good and recover the
  // rest. {2,3,4} is a legitimate quorum that never saw any phase-1
  // commit, so it elects a leader and commits fresh commands into the
  // same slots: with the fault, node 0's fabricated committed history
  // now conflicts (log disagreement) and its acknowledged writes are
  // gone from the surviving prefix. (Recovering 0/1 instead would let
  // the new leader *adopt* the fabricated-but-committed entries in
  // phase 1 of its election — Paxos legitimizes what it cannot
  // distinguish — which is exactly why the write had to be durable on a
  // real quorum in the first place.)
  cluster.Recover(2);
  cluster.Recover(3);
  cluster.Recover(4);
  cluster.Crash(0);
  cluster.Crash(1);
  cluster.RunFor(4 * kSecond);  // elections among {2,3,4}, fresh commits
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(1500 * kMillisecond);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  return result;
}

ConformanceResult RunDuplicationFaultScenario(uint64_t seed,
                                              DedupFault fault) {
  // Flat Paxos under 100% network duplication: every message on every
  // link (client requests included) is delivered twice. Three layers of
  // dedup keep that harmless — P2b vote masks, client-request admission,
  // apply-time exactly-once — and this scenario proves the harness
  // notices when either client-side layer is reverted:
  //   * kClientRecords: a duplicated ClientRequest is proposed twice and
  //     each commit is applied, so the key's version overshoots the
  //     distinct committed writes.
  //   * kVoteCount: with the majority down, the lone follower's
  //     duplicated P2b fakes a quorum (leader + follower + echo = "3");
  //     a later legitimate quorum that never saw those commits rewrites
  //     the slots, exposing log disagreement / lost acks.
  ConformanceConfig cfg;
  cfg.name = "duplication-fault";
  cfg.replica.protocol = harness::Protocol::kPaxos;
  cfg.num_clients = 1;
  cfg.num_keys = 1;
  cfg.read_ratio = 0.0;  // writes only: every ack must survive
  paxos::PaxosOptions& paxos = cfg.replica.paxos;
  paxos.test_fault_count_duplicate_votes = fault == DedupFault::kVoteCount;
  paxos.test_fault_no_client_dedup = fault == DedupFault::kClientRecords;
  // Keep follower 1 from starting elections while the majority is down,
  // and retry proposals fast so duplicated votes get exercised.
  paxos.election_timeout_min = 600 * kMillisecond;
  paxos.election_timeout_max = 900 * kMillisecond;
  paxos.propose_retry_timeout = 100 * kMillisecond;

  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  AddReplicas(cluster, cfg.replica);
  std::vector<HistoryClient*> clients = AddClients(cluster, cfg);
  cluster.network().SetLinkDuplicate(kInvalidNode, kInvalidNode, 1.0);
  cluster.Start();
  // Settle + duplicated clean traffic: with kClientRecords the double
  // applies already accumulate here, on a full healthy quorum.
  cluster.RunFor(400 * kMillisecond);

  // Phase 1: majority down. Only a duplicated vote counted twice could
  // commit (and ack) anything beyond the pre-crash baseline.
  cluster.Crash(2);
  cluster.Crash(3);
  cluster.Crash(4);
  const size_t baseline_acked = clients[0]->acked_write_seqs.size();
  for (int i = 0;
       i < 15 && clients[0]->acked_write_seqs.size() == baseline_acked;
       ++i) {
    cluster.RunFor(200 * kMillisecond);
  }

  // Phase 2: lose the fake-quorum participants, recover the rest.
  // {2,3,4} is a legitimate quorum that never saw any phase-1 commit;
  // it elects a leader and commits fresh commands into the same slots.
  cluster.Recover(2);
  cluster.Recover(3);
  cluster.Recover(4);
  cluster.Crash(0);
  cluster.Crash(1);
  cluster.RunFor(4 * kSecond);
  for (HistoryClient* c : clients) c->Stop();
  cluster.RunFor(1500 * kMillisecond);

  ConformanceResult result;
  result.violation = CheckInvariants(cluster, cfg, clients, &result);
  return result;
}

}  // namespace pig::test
