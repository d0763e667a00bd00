// Loopback-TCP consensus benchmark.
//
// One process hosts a runtime::TcpCluster of replicas (one epoll loop per
// node, real loopback sockets) and a second TcpCluster of four closed-loop
// clients. A run sets such a deployment up kSetups times; each is timed
// (setup_s is the median), driven for its share of --seconds, stopped and
// checked against the clients' model. The last line of stdout is the
// JSON result. See README.md for the workloads and metrics.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "load.h"
#include "model/bottleneck_model.h"
#include "paxos/replica.h"
#include "pigpaxos/messages.h"
#include "pigpaxos/replica.h"
#include "probe.h"
#include "runtime/tcp_cluster.h"
#include "statemachine/batch.h"
#include "storage/file_storage.h"

namespace consbench {
namespace {

using pig::MsgType;
using pig::paxos::PaxosReplica;
using pig::pigpaxos::PigPaxosReplica;

constexpr size_t kNumClients = 4;
constexpr size_t kNumKeys = 1000;
constexpr NodeId kLeader = 0;  // bootstrap leader
constexpr int kSetups = 3;
constexpr int64_t kSecondNs = 1'000'000'000;
constexpr int64_t kWarmupNs = kSecondNs;
// Followers learn the final commit index from heartbeats (20 ms apart):
// wait well over ten intervals after the clients drain.
constexpr int64_t kSettleNs = 300'000'000;
constexpr int64_t kPreloadDeadlineNs = 60 * kSecondNs;
constexpr int64_t kDrainDeadlineNs = 30 * kSecondNs;
// Leader messages per command may differ from the §6.1 formulas only by
// commands straddling the window edges (at most 4 in flight at each edge,
// against >10^4 commands in a window) and by retried rounds, which stay
// zero on a healthy run. 2% covers the first with a wide margin and
// fails on any systematic extra round trip.
constexpr double kLoadTolerance = 0.02;

struct Workload {
  const char* name;
  bool pigpaxos;
  size_t replicas;
  size_t relay_groups;  // PigPaxos only
  bool durable;
  double read_share;
  size_t value_bytes;
};

constexpr Workload kWorkloads[] = {
    {"pig25-mem", true, 25, 3, false, 0.5, 8},
    {"paxos25-mem", false, 25, 0, false, 0.5, 8},
    {"pig9-durable", true, 9, 3, true, 0.0, 1024},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string data_root;
  std::string trace_out;  // traced runs write their spans here
  bool corrupt_model = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: consbench --workload {pig25-mem|paxos25-mem|"
               "pig9-durable} --seed N --seconds S --trace {0|1} "
               "--data-root DIR [--trace-out PREFIX] [--corrupt-model]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-model") {
      a->corrupt_model = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--data-root") {
      a->data_root = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  // Every deployment measures at least one one-second slice.
  return have_seed && a->seconds >= kSetups && a->seconds <= 600 &&
         (a->trace == 0 || a->trace == 1) && !a->data_root.empty();
}

int64_t SleepUntil(int64_t deadline) {
  const int64_t now = WallNs();
  if (deadline > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
  return WallNs();
}

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::unique_ptr<PaxosReplica> MakeReplica(const Workload& w, NodeId id,
                                          pig::storage::Storage* storage) {
  pig::paxos::PaxosOptions po;
  po.num_replicas = w.replicas;
  po.bootstrap_leader = kLeader;
  po.storage = storage;
  if (!w.pigpaxos) return std::make_unique<PaxosReplica>(id, po);
  pig::pigpaxos::PigPaxosOptions o;
  o.paxos = po;
  o.num_relay_groups = w.relay_groups;
  return std::make_unique<PigPaxosReplica>(id, o);
}

std::string NodeDir(const std::string& root, NodeId id) {
  return root + "/node-" + std::to_string(id);
}

/// One set-up cluster: replicas (wrapped in probes) on one TcpCluster,
/// the clients on another that dials them like an outside process would.
class Deployment {
 public:
  Deployment(const Workload& w, const Args& a, std::string data_dir,
             bool traced)
      : data_dir_(std::move(data_dir)) {
    LoadSpec spec;
    spec.seed = a.seed;
    spec.num_keys = kNumKeys;
    spec.num_clients = kNumClients;
    spec.read_share = w.read_share;
    spec.value_bytes = w.value_bytes;
    spec.leader = kLeader;

    servers_ = std::make_unique<pig::runtime::TcpCluster>(a.seed);
    for (NodeId i = 0; i < w.replicas; ++i) {
      stats_.push_back(std::make_unique<NodeStats>());
      pig::storage::Storage* storage = nullptr;
      if (w.durable) {
        files_.push_back(std::make_unique<pig::storage::FileStorage>(
            NodeDir(data_dir_, i)));
        if (!files_.back()->ok()) {
          std::fprintf(stderr, "cannot open %s: %s\n",
                       files_.back()->dir().c_str(),
                       files_.back()->open_error().ToString().c_str());
          std::exit(1);
        }
        storage = files_.back().get();
        if (traced) {
          probes_.push_back(
              std::make_unique<ProbeStorage>(storage, stats_.back().get()));
          storage = probes_.back().get();
        }
      }
      std::unique_ptr<PaxosReplica> rep = MakeReplica(w, i, storage);
      replicas_.push_back(rep.get());
      servers_->AddActor(i, std::make_unique<ProbeActor>(
                                std::move(rep), stats_.back().get(), traced));
    }
    users_ = std::make_unique<pig::runtime::TcpCluster>(a.seed + 1);
    for (size_t c = 0; c < kNumClients; ++c) {
      auto client = std::make_unique<LoadClient>(c, spec, &control_);
      clients_.push_back(client.get());
      users_->AddActor(LoadClient::IdOf(c), std::move(client));
    }
    for (NodeId i = 0; i < w.replicas; ++i) {
      users_->AddPeer(i, "127.0.0.1", servers_->port(i));
    }
    servers_->Start();
    users_->Start();
  }

  ~Deployment() { Halt(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Blocks until every client's preload write is acknowledged.
  bool WaitPreloaded() {
    const int64_t deadline = WallNs() + kPreloadDeadlineNs;
    while (control_.preloaded.load() < static_cast<int>(kNumClients)) {
      if (WallNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  void StartLoad() { control_.go.store(true); }

  /// Lets each client finish its outstanding command, then idle.
  bool Drain() {
    control_.stop.store(true);
    const int64_t deadline = WallNs() + kDrainDeadlineNs;
    while (control_.idle.load() < static_cast<int>(kNumClients)) {
      if (WallNs() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// Joins every loop thread; actors stay readable.
  void Stop() {
    if (users_) users_->Stop();
    if (servers_) servers_->Stop();
  }

  /// Destroys the clusters and then the storages without a final Sync:
  /// what a kill -9 leaves on disk. replicas() dangle afterwards.
  void Halt() {
    users_.reset();
    servers_.reset();
    replicas_.clear();
    clients_.clear();
    probes_.clear();
    files_.clear();
  }

  std::vector<NodeSample> Sample(bool switches) const {
    std::vector<NodeSample> out;
    for (const auto& s : stats_) out.push_back(NodeSample::Take(*s, switches));
    return out;
  }

  const std::vector<PaxosReplica*>& replicas() const { return replicas_; }
  const std::vector<LoadClient*>& clients() const { return clients_; }
  const NodeStats& stats(NodeId i) const { return *stats_[i]; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  std::string data_dir_;
  LoadControl control_;
  std::vector<std::unique_ptr<NodeStats>> stats_;
  std::vector<std::unique_ptr<pig::storage::FileStorage>> files_;
  std::vector<std::unique_ptr<ProbeStorage>> probes_;
  std::vector<PaxosReplica*> replicas_;
  std::vector<LoadClient*> clients_;
  // Declared last so they are destroyed first: their loops reference
  // everything above.
  std::unique_ptr<pig::runtime::TcpCluster> servers_;
  std::unique_ptr<pig::runtime::TcpCluster> users_;
};

// --- The output model ------------------------------------------------------

/// Acknowledged writes of one key, in the order they were applied.
struct KeyModel {
  size_t client = 0;
  std::vector<uint64_t> seqs;
};

std::vector<KeyModel> BuildModel(const std::vector<LoadClient*>& clients) {
  std::vector<KeyModel> model(kNumKeys);
  for (const LoadClient* c : clients) {
    for (size_t k = 0; k < c->history().size(); ++k) {
      model[c->first_key() + k] = KeyModel{c->index(), c->history()[k]};
    }
  }
  return model;
}

class Checker {
 public:
  Checker(const std::vector<KeyModel>& model, uint64_t seed,
          size_t value_bytes)
      : model_(model), seed_(seed), value_bytes_(value_bytes) {}

  /// The value `key` holds after its first `version` writes.
  std::string ValueAt(size_t key, uint64_t version) const {
    const KeyModel& m = model_[key];
    return ValueFor(seed_, m.client, m.seqs[version - 1], value_bytes_);
  }

  /// Keys on which `store` differs from the model (value or version).
  std::vector<size_t> Exact(const pig::KvStore& store) const {
    std::vector<size_t> bad;
    const std::map<std::string, std::string> dump = store.Dump();
    size_t present = 0;
    for (size_t k = 0; k < kNumKeys; ++k) {
      const std::string name = KeyName(k);
      const uint64_t version = model_[k].seqs.size();
      auto it = dump.find(name);
      if (it != dump.end()) ++present;
      const bool ok =
          version == 0
              ? it == dump.end()
              : it != dump.end() && store.VersionOf(name) == version &&
                    it->second == ValueAt(k, version);
      if (!ok) bad.push_back(k);
    }
    if (dump.size() != present) bad.push_back(kNumKeys);  // stray keys
    return bad;
  }

  /// Keys on which `store` is not a prefix of the model: a version past
  /// the model's, or a value other than the model's at that version.
  std::vector<size_t> Prefix(const pig::KvStore& store) const {
    std::vector<size_t> bad;
    for (size_t k = 0; k < kNumKeys; ++k) {
      const std::string name = KeyName(k);
      const uint64_t version = store.VersionOf(name);
      const bool ok = version == 0 ? !store.Contains(name)
                                   : version <= model_[k].seqs.size() &&
                                         store.Get(name) == ValueAt(k, version);
      if (!ok) bad.push_back(k);
    }
    if (store.size() > kNumKeys) bad.push_back(kNumKeys);
    return bad;
  }

 private:
  const std::vector<KeyModel>& model_;
  uint64_t seed_;
  size_t value_bytes_;
};

const char* FsName(int64_t type) {
  switch (type) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: return "other";
  }
}

// --- Timed windows ---------------------------------------------------------

/// Process and leader CPU at one slice edge of a timed window.
struct Edge {
  int64_t at;
  double process_cpu_us;
  int64_t leader_cpu_ns;
  long max_rss_kb;
};

Edge TakeEdge(const Deployment& d) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return Edge{WallNs(), us(ru.ru_utime) + us(ru.ru_stime),
              NodeSample::Take(d.stats(kLeader), false).thread_cpu_ns,
              ru.ru_maxrss};
}

/// One deployment's window: slice edges plus every replica's counters at
/// its two ends.
struct Window {
  std::vector<Edge> edges;
  std::vector<NodeSample> start, end;
};

/// Lets the clients loose, warms up, measures `slices` one-second slices,
/// then drains the clients, lets followers learn the last commit and
/// stops the deployment.
bool Drive(Deployment& d, int slices, bool traced, Window* w) {
  d.StartLoad();
  SleepUntil(WallNs() + kWarmupNs);
  w->start = d.Sample(traced);
  w->edges.push_back(TakeEdge(d));
  const int64_t t0 = w->edges.front().at;
  for (int k = 1; k <= slices; ++k) {
    SleepUntil(t0 + k * kSecondNs);
    w->edges.push_back(TakeEdge(d));
  }
  w->end = d.Sample(traced);
  if (!d.Drain()) return false;
  std::this_thread::sleep_for(std::chrono::nanoseconds(kSettleNs));
  d.Stop();
  return true;
}

/// What the windows of a run yield, pooled over its deployments.
struct Pool {
  // One entry per one-second slice; end-to-end figures are their medians,
  // so a burst of outside load on the host moves a slice, not the run.
  std::vector<double> slice_throughput, slice_p50_ms, slice_cpu_us,
      slice_leader_us;
  std::vector<double> latency_ms;  ///< Every command completed in a window.
  std::vector<NodeSample> nodes;   ///< Per-replica counter deltas, summed.
  // Span joins (traced runs).
  std::vector<double> request_transit_us, reply_transit_us, commit_round_us,
      relay_round_us, sync_us;
  uint64_t propose_retries = 0, elections = 0, relay_timeouts = 0,
           relays_suspected = 0;
  long max_rss_kb = 0;
};

/// Where a traced run writes its spans: one TSV row per command and per
/// relay round, times in ns from the start of that deployment's window.
class SpanFiles {
 public:
  explicit SpanFiles(const std::string& prefix) {
    if (prefix.empty()) return;
    commands_ = std::fopen((prefix + ".commands.tsv").c_str(), "w");
    relays_ = std::fopen((prefix + ".relays.tsv").c_str(), "w");
    if (commands_ != nullptr) {
      std::fprintf(commands_,
                   "deployment\tclient\tseq\tissued_ns\tleader_in_ns\t"
                   "reply_out_ns\tdone_ns\n");
    }
    if (relays_ != nullptr) {
      std::fprintf(relays_,
                   "deployment\trelay_id\tsent_ns\tfirst_response_ns\n");
    }
  }
  ~SpanFiles() {
    if (commands_ != nullptr) std::fclose(commands_);
    if (relays_ != nullptr) std::fclose(relays_);
  }
  SpanFiles(const SpanFiles&) = delete;
  SpanFiles& operator=(const SpanFiles&) = delete;

  FILE* commands() const { return commands_; }
  FILE* relays() const { return relays_; }

 private:
  FILE* commands_ = nullptr;
  FILE* relays_ = nullptr;
};

/// A command completed inside a window, with the client that issued it.
struct Done {
  NodeId client;
  const Completion* c;
};

/// Joins the leader's span edges with the clients' by (client, seq) and
/// by relay round.
void JoinSpans(const Deployment& d, const std::vector<Done>& window,
               int64_t t0, int64_t t1, int index, const SpanFiles& files,
               Pool* pool) {
  std::unordered_map<uint64_t, int64_t> req_in, reply_out, relay_out,
      relay_in;
  for (const Event& e : d.stats(kLeader).events) {
    switch (e.kind) {
      case Event::kRequestIn: req_in[e.id] = e.at; break;
      case Event::kReplyOut: reply_out[e.id] = e.at; break;
      case Event::kRelayOut: relay_out[e.id] = e.at; break;
      case Event::kRelayIn: relay_in.emplace(e.id, e.at); break;  // first
      case Event::kSync: break;
    }
  }
  for (const Done& x : window) {
    const uint64_t id = CommandId(x.client, x.c->seq);
    auto in = req_in.find(id);
    auto out = reply_out.find(id);
    if (in == req_in.end() || out == reply_out.end()) continue;
    pool->request_transit_us.push_back((in->second - x.c->issued) / 1e3);
    pool->commit_round_us.push_back((out->second - in->second) / 1e3);
    pool->reply_transit_us.push_back((x.c->done - out->second) / 1e3);
    if (files.commands() != nullptr) {
      std::fprintf(files.commands(), "%d\t%u\t%llu\t%lld\t%lld\t%lld\t%lld\n",
                   index, x.client,
                   static_cast<unsigned long long>(x.c->seq),
                   static_cast<long long>(x.c->issued - t0),
                   static_cast<long long>(in->second - t0),
                   static_cast<long long>(out->second - t0),
                   static_cast<long long>(x.c->done - t0));
    }
  }
  for (const auto& [id, sent] : relay_out) {
    if (sent < t0 || sent >= t1) continue;
    auto back = relay_in.find(id);
    if (back == relay_in.end()) continue;
    pool->relay_round_us.push_back((back->second - sent) / 1e3);
    if (files.relays() != nullptr) {
      std::fprintf(files.relays(), "%d\t%llu\t%lld\t%lld\n", index,
                   static_cast<unsigned long long>(id),
                   static_cast<long long>(sent - t0),
                   static_cast<long long>(back->second - t0));
    }
  }
  for (NodeId i = 0; i < d.replicas().size(); ++i) {
    for (const Event& e : d.stats(i).events) {
      if (e.kind == Event::kSync && e.at >= t0 && e.at < t1) {
        pool->sync_us.push_back(e.aux / 1e3);
      }
    }
  }
}

/// Adds one stopped deployment's window to the pool.
void Collect(const Deployment& d, const Window& w, int index, bool traced,
             const SpanFiles& files, Pool* pool) {
  const int64_t t0 = w.edges.front().at;
  const int64_t t1 = w.edges.back().at;
  const size_t slices = w.edges.size() - 1;
  std::vector<std::vector<double>> slice_latency(slices);
  std::vector<Done> window;
  for (const LoadClient* c : d.clients()) {
    for (const Completion& x : c->completions()) {
      if (x.done < t0 || x.done >= t1) continue;
      const double ms = static_cast<double>(x.done - x.issued) / 1e6;
      const auto k = static_cast<size_t>(
          std::upper_bound(w.edges.begin(), w.edges.end(), x.done,
                           [](int64_t t, const Edge& e) { return t < e.at; }) -
          w.edges.begin() - 1);
      slice_latency[k].push_back(ms);
      pool->latency_ms.push_back(ms);
      window.push_back({LoadClient::IdOf(c->index()), &x});
    }
  }
  for (size_t k = 0; k < slices; ++k) {
    const auto n = static_cast<double>(slice_latency[k].size());
    if (n == 0) continue;
    const Edge& e0 = w.edges[k];
    const Edge& e1 = w.edges[k + 1];
    pool->slice_throughput.push_back(n /
                                     (static_cast<double>(e1.at - e0.at) / 1e9));
    pool->slice_p50_ms.push_back(Quantile(slice_latency[k], 0.5));
    pool->slice_cpu_us.push_back((e1.process_cpu_us - e0.process_cpu_us) / n);
    pool->slice_leader_us.push_back(
        static_cast<double>(e1.leader_cpu_ns - e0.leader_cpu_ns) / 1e3 / n);
  }
  pool->max_rss_kb = std::max(pool->max_rss_kb, w.edges.back().max_rss_kb);
  for (size_t i = 0; i < w.start.size(); ++i) {
    const NodeSample delta = w.end[i].Minus(w.start[i]);
    if (pool->nodes.size() <= i) {
      pool->nodes.push_back(delta);
    } else {
      pool->nodes[i] = pool->nodes[i].Plus(delta);
    }
  }
  for (const PaxosReplica* r : d.replicas()) {
    pool->propose_retries += r->metrics().propose_retries;
    pool->elections += r->metrics().elections_started;
    if (const auto* pr = dynamic_cast<const PigPaxosReplica*>(r)) {
      pool->relay_timeouts += pr->relay_metrics().relay_timeouts;
      pool->relays_suspected += pr->relay_metrics().relays_suspected;
    }
  }
  if (!d.replicas()[kLeader]->IsLeader()) {
    std::printf("# warning: replica %u lost leadership in deployment %d\n",
                kLeader, index);
  }
  if (traced) JoinSpans(d, window, t0, t1, index, files, pool);
  std::printf("# deployment %d: %zu commands in %zu one-second slices;"
              " ops/s per slice:",
              index, window.size(), slices);
  for (const std::vector<double>& l : slice_latency) {
    std::printf(" %zu", l.size());
  }
  std::printf("\n");
}

// --- Output checks ---------------------------------------------------------

/// Checks one stopped deployment against its clients' model and returns
/// the number of keys found wrong. For the durable workload it then
/// recovers every replica from its data dir, which halts the deployment.
uint64_t Check(Deployment& d, const Workload& w, const Args& a) {
  std::vector<KeyModel> model = BuildModel(d.clients());
  if (a.corrupt_model) {
    model[0].seqs.back() += 1;  // one wrong expected value, on purpose
    std::printf("# model corrupted on purpose: key 0 expects seq %llu\n",
                static_cast<unsigned long long>(model[0].seqs.back()));
  }
  const Checker check(model, a.seed, w.value_bytes);
  std::vector<bool> bad_key(kNumKeys + 1, false);
  const auto mark = [&](NodeId replica, const std::vector<size_t>& bad,
                        const char* what) {
    for (size_t k : bad) {
      if (!bad_key[k]) {
        std::printf("# replica %u: key %zu %s\n", replica, k, what);
      }
      bad_key[k] = true;
    }
  };
  // Every replica, leader and followers, must hold exactly the model:
  // the last acknowledged value of every key, written exactly as many
  // times as it was acknowledged.
  for (NodeId i = 0; i < d.replicas().size(); ++i) {
    mark(i, check.Exact(d.replicas()[i]->store()), "differs from the model");
  }
  if (w.durable) {
    const std::string dir = d.data_dir();
    d.Halt();
    for (NodeId i = 0; i < w.replicas; ++i) {
      pig::storage::FileStorage fs(NodeDir(dir, i));
      std::unique_ptr<PaxosReplica> rep = MakeReplica(w, i, &fs);
      if (i != kLeader) {
        mark(i, check.Prefix(rep->store()),
             "recovered is not a prefix of the model");
        continue;
      }
      // The leader syncs each accept before counting its own vote, so
      // every acknowledged write is in its durable log. Commit marks only
      // ride the next barrier, so the newest accepts may come back not
      // yet known committed: apply that tail in slot order, and the
      // state must equal the model.
      pig::KvStore state;
      state.RestoreVersioned(rep->store().DumpVersioned());
      const pig::ReplicatedLog& log = rep->log();
      size_t tail = 0;
      for (pig::SlotId s = log.executed_upto() + 1; s <= log.last_slot();
           ++s) {
        const pig::LogEntry* e = log.Get(s);
        if (e == nullptr) continue;
        ++tail;
        pig::ForEachCommand(e->command, [&](const pig::Command& cmd) {
          if (cmd.IsWrite()) state.Apply(cmd);
        });
      }
      std::printf("# recovery: leader store + %zu durable accepts not yet "
                  "marked committed\n",
                  tail);
      mark(i, check.Exact(state), "recovered differs from the model");
    }
  }
  return static_cast<uint64_t>(
      std::count(bad_key.begin(), bad_key.end(), true));
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const Pool& p, const std::vector<double>& setup_s) {
  return {
      {"throughput_ops_s", Quantile(p.slice_throughput, 0.5), "ops/s"},
      {"latency_p50_ms", Quantile(p.slice_p50_ms, 0.5), "ms"},
      {"cpu_us_per_op", Quantile(p.slice_cpu_us, 0.5), "us"},
      {"leader_cpu_us_per_op", Quantile(p.slice_leader_us, 0.5), "us"},
      {"peak_rss_mb", static_cast<double>(p.max_rss_kb) / 1024.0, "MB"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };
}

/// The per-layer figures of a traced run. Sets *load_ok to the outcome
/// of the §6.1 message-load property check.
std::vector<Metric> PerLayer(const Pool& p, const Workload& w,
                             bool* load_ok) {
  const double ops = static_cast<double>(p.latency_ms.size());
  const auto per_op = [&](double x) { return x / ops; };
  const auto us_per_op = [&](double ns) { return ns / 1e3 / ops; };
  const auto d = [](uint64_t x) { return static_cast<double>(x); };
  const NodeSample& ld = p.nodes[kLeader];
  double f_loop = 0, f_send = 0, f_handler = 0, f_relay = 0, f_msgs = 0,
         f_round_msgs = 0, busiest = 0, total_bytes = 0;
  double appends = 0, syncs = 0, sync_ns = 0, append_ns = 0,
         snapshot_ns = 0, wal_bytes = 0;
  for (NodeId i = 0; i < p.nodes.size(); ++i) {
    const NodeSample& x = p.nodes[i];
    total_bytes += d(x.bytes_out);
    appends += d(x.appends);
    syncs += d(x.syncs);
    sync_ns += d(x.sync_ns);
    append_ns += d(x.append_ns);
    snapshot_ns += d(x.snapshot_ns);
    wal_bytes += d(x.wal_bytes);
    if (i == kLeader) continue;
    const double msgs = d(x.msgs_in + x.msgs_out);
    f_loop += static_cast<double>(x.thread_cpu_ns) - d(x.handler_ns + x.timer_ns);
    f_send += d(x.send_ns);
    f_handler += d(x.handler_ns + x.timer_ns) - d(x.send_ns);
    f_relay += d(x.relay_ns);
    f_msgs += msgs;
    f_round_msgs += d(x.RoundMsgs());
    busiest = std::max(busiest, msgs);
  }
  const double followers = static_cast<double>(p.nodes.size() - 1);
  const double leader_msgs = d(ld.msgs_in + ld.msgs_out);

  std::vector<Metric> m = {
      {"runtime.leader.loop_cpu_us_per_op",
       us_per_op(static_cast<double>(ld.thread_cpu_ns) -
                 d(ld.handler_ns + ld.timer_ns)),
       "us"},
      {"runtime.followers.loop_cpu_us_per_op", us_per_op(f_loop), "us"},
      {"runtime.leader.send_us_per_op", us_per_op(d(ld.send_ns)), "us"},
      {"runtime.followers.send_us_per_op", us_per_op(f_send), "us"},
      {"runtime.leader.ctx_switches_per_op", per_op(d(ld.voluntary_switches)),
       "count"},
      {"runtime.request_transit_us_p50", Quantile(p.request_transit_us, 0.5),
       "us"},
      {"runtime.reply_transit_us_p50", Quantile(p.reply_transit_us, 0.5),
       "us"},
      {"consensus.leader.msgs_per_op", per_op(leader_msgs), "count"},
      {"consensus.leader.bytes_in_per_op", per_op(d(ld.bytes_in)), "B"},
      {"consensus.leader.bytes_out_per_op", per_op(d(ld.bytes_out)), "B"},
      {"consensus.leader.heartbeats_per_op",
       per_op(d(ld.heartbeats_in + ld.heartbeats_out)), "count"},
      {"consensus.followers.msgs_per_op", per_op(f_msgs) / followers,
       "count"},
      {"consensus.busiest_follower.msgs_per_op", per_op(busiest), "count"},
      {"consensus.total.bytes_per_op", per_op(total_bytes), "B"},
  };
  const auto by_type = [&](const char* dir, const auto& counts,
                           std::initializer_list<std::pair<MsgType, const char*>>
                               types,
                           uint64_t all) {
    uint64_t other = all;  // counted in integers: exactly 0 when none
    for (const auto& [t, name] : types) {
      const uint64_t n = counts[static_cast<size_t>(t)];
      other -= n;
      m.push_back({std::string("consensus.leader.") + dir + "_per_op." + name,
                   per_op(d(n)), "count"});
    }
    m.push_back({std::string("consensus.leader.") + dir + "_per_op.other",
                 per_op(d(other)), "count"});
  };
  by_type("in", ld.in_by_type,
          {{MsgType::kClientRequest, "ClientRequest"},
           {MsgType::kP2b, "P2b"},
           {MsgType::kRelayResponse, "RelayResponse"},
           {MsgType::kLogSyncRequest, "LogSyncRequest"}},
          ld.msgs_in);
  by_type("out", ld.out_by_type,
          {{MsgType::kClientReply, "ClientReply"},
           {MsgType::kP2a, "P2a"},
           {MsgType::kRelayRequest, "RelayRequest"},
           {MsgType::kHeartbeat, "Heartbeat"},
           {MsgType::kLogSyncResponse, "LogSyncResponse"}},
          ld.msgs_out);
  const std::vector<Metric> rest = {
      {"paxos.leader.handler_us_per_op",
       us_per_op(d(ld.handler_ns + ld.timer_ns) - d(ld.send_ns)), "us"},
      {"paxos.followers.handler_us_per_op", us_per_op(f_handler), "us"},
      {"paxos.commit_round_us_p50", Quantile(p.commit_round_us, 0.5), "us"},
      {"paxos.leader.timer_fires_per_op", per_op(d(ld.timer_fires)), "count"},
      {"paxos.propose_retries", d(p.propose_retries), "count"},
      {"paxos.elections_started", d(p.elections) / kSetups, "count"},
      {"pigpaxos.relay_handler_us_per_op", us_per_op(f_relay), "us"},
      {"pigpaxos.relay_round_us_p50", Quantile(p.relay_round_us, 0.5), "us"},
      {"pigpaxos.relay_timeouts", d(p.relay_timeouts), "count"},
      {"pigpaxos.relays_suspected", d(p.relays_suspected), "count"},
      {"client.latency_p99_ms", Quantile(p.latency_ms, 0.99), "ms"},
      {"client.latency_p999_ms", Quantile(p.latency_ms, 0.999), "ms"},
      {"client.latency_samples", ops, "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  if (w.durable) {  // the memory-only workloads attach no storage
    const std::vector<Metric> storage = {
        {"storage.appends_per_op", per_op(appends), "count"},
        {"storage.syncs_per_op", per_op(syncs), "count"},
        {"storage.sync_us_p50", Quantile(p.sync_us, 0.5), "us"},
        {"storage.sync_us_p99", Quantile(p.sync_us, 0.99), "us"},
        {"storage.sync_us_per_op", us_per_op(sync_ns), "us"},
        {"storage.leader.sync_us_per_op", us_per_op(d(ld.sync_ns)), "us"},
        {"storage.append_us_per_op", us_per_op(append_ns), "us"},
        {"storage.snapshot_us_per_op", us_per_op(snapshot_ns), "us"},
        {"storage.wal_bytes_per_op", per_op(wal_bytes), "B"},
    };
    m.insert(m.end(), storage.begin(), storage.end());
  }

  // §6.1 message-load property on replication-round traffic; heartbeats
  // and log catch-up are reported by type above and left out here.
  const pig::model::MessageLoad expect =
      w.pigpaxos ? pig::model::PigPaxosLoad(w.replicas, w.relay_groups)
                 : pig::model::PaxosLoad(w.replicas);
  const double leader_round = per_op(d(ld.RoundMsgs()));
  const double follower_round = per_op(f_round_msgs) / followers;
  const auto within = [](double got, double want) {
    return std::abs(got - want) <= kLoadTolerance * want;
  };
  const bool leader_ok = within(leader_round, expect.leader);
  const bool follower_ok = within(follower_round, expect.follower);
  std::printf("# §6.1 load: leader %.4f round msgs/cmd (model %.2f) %s; "
              "follower mean %.4f (model %.4f) %s; tolerance %.0f%%; "
              "leader heartbeat + catch-up msgs/cmd apart: %.4f\n",
              leader_round, expect.leader, leader_ok ? "ok" : "OUT",
              follower_round, expect.follower, follower_ok ? "ok" : "OUT",
              kLoadTolerance * 100, per_op(leader_msgs) - leader_round);
  *load_ok = leader_ok && follower_ok;
  return m;
}

int Run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const bool traced = a.trace == 1;
  pig::pigpaxos::RegisterPigPaxosMessages();
  pig::SetLogLevel(pig::LogLevel::kWarn);

  std::error_code ec;
  std::filesystem::create_directories(a.data_root, ec);
  std::printf("# workload %s seed %llu seconds %d trace %d\n", w->name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  if (w->durable) {
    struct statfs fs {};
    if (::statfs(a.data_root.c_str(), &fs) == 0) {
      std::printf("# data dirs under %s on %s (f_type 0x%llx)\n",
                  a.data_root.c_str(), FsName(fs.f_type),
                  static_cast<unsigned long long>(fs.f_type));
    }
  }

  // kSetups deployments, each set up from nothing (timed: setup_s is the
  // median), driven for its share of --seconds, stopped and checked.
  const SpanFiles files(traced ? a.trace_out : std::string());
  Pool pool;
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (int k = 0; k < kSetups; ++k) {
    const int64_t start = WallNs();
    Deployment d(*w, a, a.data_root + "/deployment-" + std::to_string(k),
                 traced);
    if (!d.WaitPreloaded()) {
      std::fprintf(stderr, "preload did not complete within %lld s\n",
                   static_cast<long long>(kPreloadDeadlineNs / kSecondNs));
      return 1;
    }
    setup_s.push_back(static_cast<double>(WallNs() - start) / 1e9);
    const int slices =
        a.seconds * (k + 1) / kSetups - a.seconds * k / kSetups;
    Window win;
    if (!Drive(d, slices, traced, &win)) {
      std::fprintf(stderr, "clients did not drain within %lld s\n",
                   static_cast<long long>(kDrainDeadlineNs / kSecondNs));
      return 1;
    }
    Collect(d, win, k, traced, files, &pool);
    for (const LoadClient* c : d.clients()) {
      attempted += c->attempted();
      failed += c->failed();
    }
    failed += Check(d, *w, a);
  }
  // Data dirs go only now: deleting a deployment's WAL (discards on the
  // device) would slow the next deployment's syncs.
  std::filesystem::remove_all(a.data_root, ec);
  if (pool.latency_ms.empty()) {
    std::fprintf(stderr, "no command completed in a timed window\n");
    return 1;
  }
  std::printf("# latency samples %zu; setup_s of each deployment:",
              pool.latency_ms.size());
  for (double x : setup_s) std::printf(" %.4f", x);
  std::printf("\n");

  bool correct = failed == 0;
  std::vector<Metric> metrics;
  if (traced) {
    bool load_ok = false;
    metrics = PerLayer(pool, *w, &load_ok);
    correct = correct && load_ok;
  } else {
    metrics = EndToEnd(pool, setup_s);
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace consbench

int main(int argc, char** argv) {
  consbench::Args args;
  if (!consbench::ParseArgs(argc, argv, &args)) {
    consbench::Usage();
    return 2;
  }
  return consbench::Run(args);
}
