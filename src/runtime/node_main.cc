// pig_node — one replica (or benchmark client) as a real OS process on
// the TCP runtime. A shell script (scripts/run_tcp_cluster.sh) launches
// one process per node:
//
//   pig_node --node-id=3 --peers=127.0.0.1:42100,...,127.0.0.1:42108
//            --protocol=pigpaxos --relay-groups=3
//   pig_node --client --peers=... --ops=200        # blocking workload
//
// The i-th --peers entry is node i's listen address; a replica binds its
// own entry and dials the rest. Each pair of replicas then talks over the
// one connection the higher id dialed, in both directions; the
// connection the lower id dialed is a fallback while that one is down
// (runtime/tcp_cluster.h). The client joins with an ephemeral port
// (replies return over its dialed connections), runs `--ops` sequential
// puts plus a read-back check, prints "committed=N failed=M", and exits
// nonzero on any failure. Replicas run until SIGTERM/SIGINT.
//
// With --data-dir=PATH the replica runs durably: each consensus group
// gets a segmented WAL + snapshot subtree at PATH/group-<g>
// (storage/file_storage.h), and a kill -9'd process restarted with the
// same --data-dir recovers its committed prefix from disk before
// rejoining — peers only supply the delta via LogSync.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "epaxos/messages.h"
#include "harness/replica_spec.h"
#include "harness/scenario_config.h"
#include "pigpaxos/messages.h"
#include "runtime/tcp_cluster.h"
#include "runtime/thread_cluster.h"
#include "shard/messages.h"
#include "storage/file_storage.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Args {
  pig::NodeId node_id = pig::kInvalidNode;
  bool client = false;
  std::vector<std::pair<std::string, uint16_t>> peers;
  std::string protocol = "pigpaxos";
  /// --protocol, --relay-groups, --num-groups and --snapshot-interval;
  /// num_replicas comes from the --peers count.
  pig::harness::ReplicaSpec spec;
  int ops = 100;
  /// Client-only: pause between commands. Fault-injection runs use this
  /// to stretch the workload across a scripted kill/restart window.
  int op_delay_ms = 0;
  uint64_t seed = 1;
  /// Replica-only: durable WAL + snapshot root (empty = memory only).
  std::string data_dir;
  /// Scenario pack (scenarios/*.json) to load and validate at startup.
  /// The TCP runtime has no virtual-time fault engine, so the schedule
  /// is checked and logged, not executed — the same file drives the
  /// simulator harness and the conformance matrix, and a node that
  /// rejects it fails fast before any process in the pack launches.
  std::string scenario_file;
};

bool ParsePeers(const std::string& csv, Args* args) {
  size_t start = 0;
  while (start < csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(start, comma - start);
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos) return false;
    args->peers.emplace_back(
        entry.substr(0, colon),
        static_cast<uint16_t>(std::atoi(entry.c_str() + colon + 1)));
    start = comma + 1;
  }
  return !args->peers.empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  // Executed slots between durable snapshots when --data-dir is set.
  args->spec.paxos.snapshot_interval = 4096;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--node-id=")) {
      args->node_id = static_cast<pig::NodeId>(std::atoi(v));
    } else if (arg == "--client") {
      args->client = true;
    } else if (const char* p = value("--peers=")) {
      if (!ParsePeers(p, args)) return false;
    } else if (const char* v2 = value("--protocol=")) {
      args->protocol = v2;
    } else if (const char* v3 = value("--relay-groups=")) {
      args->spec.pig.num_relay_groups = static_cast<size_t>(std::atoi(v3));
    } else if (const char* vg = value("--num-groups=")) {
      args->spec.num_groups = static_cast<uint32_t>(std::atoi(vg));
      if (args->spec.num_groups == 0) return false;
    } else if (const char* v4 = value("--ops=")) {
      args->ops = std::atoi(v4);
    } else if (const char* vd = value("--op-delay-ms=")) {
      args->op_delay_ms = std::atoi(vd);
    } else if (const char* v5 = value("--seed=")) {
      args->seed = static_cast<uint64_t>(std::atoll(v5));
    } else if (const char* vdd = value("--data-dir=")) {
      args->data_dir = vdd;
    } else if (const char* vsi = value("--snapshot-interval=")) {
      args->spec.paxos.snapshot_interval =
          static_cast<size_t>(std::atoll(vsi));
    } else if (const char* vsc = value("--scenario=")) {
      args->scenario_file = vsc;
    } else {
      std::fprintf(stderr, "pig_node: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (args->peers.empty()) return false;
  if (!args->client && args->node_id >= args->peers.size()) return false;
  args->spec.num_replicas = args->peers.size();
  if (args->protocol == "paxos") {
    args->spec.protocol = pig::harness::Protocol::kPaxos;
  } else if (args->protocol == "pigpaxos") {
    args->spec.protocol = pig::harness::Protocol::kPigPaxos;
  } else if (args->protocol == "epaxos") {
    args->spec.protocol = pig::harness::Protocol::kEPaxos;
  } else {
    std::fprintf(stderr, "pig_node: unknown protocol %s\n",
                 args->protocol.c_str());
    return false;
  }
  if (args->spec.protocol == pig::harness::Protocol::kEPaxos) {
    if (!args->data_dir.empty()) {
      std::fprintf(stderr,
                   "pig_node: --data-dir is not supported for epaxos\n");
      return false;
    }
    if (args->spec.num_groups > 1) {
      std::fprintf(stderr,
                   "pig_node: --num-groups requires paxos/pigpaxos\n");
      return false;
    }
  }
  // Snapshots only matter on disk; memory-only nodes never take them.
  if (args->data_dir.empty()) args->spec.paxos.snapshot_interval = 0;
  return true;
}

/// Opens PATH/group-<g> for every consensus group hosted by this
/// process (none when running memory-only). The replica actors hold
/// non-owning pointers, so RunReplica keeps the list alive past cluster
/// teardown. Returns false after printing the error on failure.
bool OpenStorage(const Args& args,
                 std::vector<std::unique_ptr<pig::storage::FileStorage>>*
                     storages) {
  if (args.data_dir.empty()) return true;
  for (uint32_t g = 0; g < args.spec.num_groups; ++g) {
    const std::string dir = args.data_dir + "/group-" + std::to_string(g);
    auto fsb = std::make_unique<pig::storage::FileStorage>(dir);
    if (!fsb->ok()) {
      std::fprintf(stderr, "pig_node: cannot open data dir %s: %s\n",
                   dir.c_str(), fsb->open_error().ToString().c_str());
      return false;
    }
    storages->push_back(std::move(fsb));
  }
  return true;
}

/// Loads and validates the --scenario pack against this cluster's size.
/// Returns false (after printing the parse or validation error) so a bad
/// pack fails the whole launch before any node starts serving.
bool CheckScenario(const Args& args) {
  if (args.scenario_file.empty()) return true;
  pig::Result<pig::harness::ScenarioSpec> spec =
      pig::harness::LoadScenarioFile(args.scenario_file);
  if (!spec.ok()) {
    std::fprintf(stderr, "pig_node: %s\n",
                 spec.status().ToString().c_str());
    return false;
  }
  pig::Status valid =
      pig::harness::ValidateScenario(spec.value(), args.peers.size());
  if (!valid.ok()) {
    std::fprintf(stderr, "pig_node: %s\n", valid.ToString().c_str());
    return false;
  }
  std::printf("pig_node: scenario-loaded name=%s events=%zu\n",
              spec.value().name.c_str(), spec.value().schedule.size());
  std::fflush(stdout);
  return true;
}

int RunReplica(const Args& args) {
  // A server process wants the cold-path operational log (elections,
  // snapshot installs, wal-recovery) on stderr; the kWarn default exists
  // for the simulator's hot loop, not for a long-running node. The
  // durable restart script greps the wal-recovery line specifically.
  pig::SetLogLevel(pig::LogLevel::kInfo);
  // Declared first: outlives the replica actors.
  std::vector<std::unique_ptr<pig::storage::FileStorage>> storages;
  if (!OpenStorage(args, &storages)) return 2;
  pig::runtime::TcpCluster cluster(args.seed);
  for (pig::NodeId i = 0; i < args.peers.size(); ++i) {
    if (i == args.node_id) continue;
    cluster.AddPeer(i, args.peers[i].first, args.peers[i].second);
  }
  cluster.AddActor(
      args.node_id,
      pig::harness::MakeNode(args.spec, args.node_id,
                             [&storages](uint32_t g) {
                               return storages.empty() ? nullptr
                                                       : storages[g].get();
                             }),
      args.peers[args.node_id].second);
  if (cluster.port(args.node_id) != args.peers[args.node_id].second) {
    std::fprintf(stderr, "pig_node: could not bind port %u\n",
                 args.peers[args.node_id].second);
    return 2;
  }
  cluster.Start();
  std::printf("pig_node: node %u listening on %u (%s)\n", args.node_id,
              cluster.port(args.node_id), args.protocol.c_str());
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  cluster.Stop();
  return 0;
}

int RunClient(const Args& args) {
  pig::runtime::TcpCluster cluster(args.seed);
  for (pig::NodeId i = 0; i < args.peers.size(); ++i) {
    cluster.AddPeer(i, args.peers[i].first, args.peers[i].second);
  }
  auto client = std::make_unique<pig::runtime::SyncClient>(
      args.peers.size(), 200 * pig::kMillisecond, args.spec.num_groups);
  pig::runtime::SyncClient* kv = client.get();
  cluster.AddActor(pig::kFirstClientId, std::move(client), /*port=*/0);
  cluster.Start();

  int committed = 0;
  int failed = 0;
  for (int i = 0; i < args.ops && g_stop == 0; ++i) {
    char key[32];
    char value[32];
    std::snprintf(key, sizeof(key), "tcp-k%05d", i);
    std::snprintf(value, sizeof(value), "v%d", i);
    pig::Result<std::string> r =
        kv->Execute(pig::OpType::kPut, key, value, 15 * pig::kSecond);
    if (r.ok()) {
      ++committed;
    } else {
      ++failed;
      std::fprintf(stderr, "pig_node: put %s failed: %s\n", key,
                   r.status().ToString().c_str());
    }
    if (args.op_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.op_delay_ms));
    }
  }
  // Read-back check: the last write must be visible.
  bool verified = true;
  if (committed > 0) {
    char key[32];
    char want[32];
    std::snprintf(key, sizeof(key), "tcp-k%05d", args.ops - 1);
    std::snprintf(want, sizeof(want), "v%d", args.ops - 1);
    pig::Result<std::string> r =
        kv->Execute(pig::OpType::kGet, key, "", 15 * pig::kSecond);
    verified = r.ok() && r.value() == want;
    if (!verified) {
      std::fprintf(stderr, "pig_node: read-back of %s failed\n", key);
    }
  }
  cluster.Stop();
  std::printf("committed=%d failed=%d\n", committed, failed);
  std::fflush(stdout);
  return (failed == 0 && committed == args.ops && verified) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pig_node --node-id=N --peers=host:port,... "
                 "[--protocol=paxos|pigpaxos|epaxos] [--relay-groups=K] "
                 "[--num-groups=G] [--seed=S] [--data-dir=PATH] "
                 "[--snapshot-interval=I] [--scenario=FILE.json]\n"
                 "       pig_node --client --peers=... [--ops=N] "
                 "[--num-groups=G] [--op-delay-ms=D]\n");
    return 2;
  }
  if (!CheckScenario(args)) return 2;
  pig::pigpaxos::RegisterPigPaxosMessages();
  pig::epaxos::RegisterEPaxosMessages();
  pig::shard::RegisterShardMessages();
  return args.client ? RunClient(args) : RunReplica(args);
}
