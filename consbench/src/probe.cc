#include "probe.h"

#include <pthread.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "consensus/client_messages.h"
#include "pigpaxos/messages.h"

namespace consbench {

using pig::Message;
using pig::MsgType;
using pig::pigpaxos::RelayRequest;
using pig::pigpaxos::RelayResponse;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

size_t TypeIndex(const Message& m) { return static_cast<size_t>(m.type()); }

/// Heartbeats are counted apart from the per-command traffic whether they
/// travel bare (Paxos) or inside a relay envelope (PigPaxos).
bool IsHeartbeat(const Message& m) {
  if (m.type() == MsgType::kHeartbeat) return true;
  if (m.type() != MsgType::kRelayRequest) return false;
  const auto& req = static_cast<const RelayRequest&>(m);
  return req.inner != nullptr && req.inner->type() == MsgType::kHeartbeat;
}

uint64_t VoluntarySwitches(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/status",
                static_cast<int>(tid));
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long n = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "voluntary_ctxt_switches: %llu", &n) == 1) break;
  }
  std::fclose(f);
  return n;
}

}  // namespace

NodeSample NodeSample::Take(const NodeStats& s, bool switches) {
  NodeSample o;
  if (s.started.load(std::memory_order_acquire)) {
    timespec ts{};
    if (::clock_gettime(s.cpu_clock, &ts) == 0) {
      o.thread_cpu_ns =
          static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }
    if (switches) o.voluntary_switches = VoluntarySwitches(s.tid);
  }
  o.msgs_in = s.msgs_in.Get();
  o.msgs_out = s.msgs_out.Get();
  o.bytes_in = s.bytes_in.Get();
  o.bytes_out = s.bytes_out.Get();
  o.heartbeats_in = s.heartbeats_in.Get();
  o.heartbeats_out = s.heartbeats_out.Get();
  for (size_t t = 0; t < kNumMsgTypes; ++t) {
    o.in_by_type[t] = s.in_by_type[t].Get();
    o.out_by_type[t] = s.out_by_type[t].Get();
  }
  o.handler_ns = s.handler_ns.Get();
  o.timer_ns = s.timer_ns.Get();
  o.timer_fires = s.timer_fires.Get();
  o.send_ns = s.send_ns.Get();
  o.relay_ns = s.relay_ns.Get();
  o.appends = s.appends.Get();
  o.append_ns = s.append_ns.Get();
  o.syncs = s.syncs.Get();
  o.sync_ns = s.sync_ns.Get();
  o.snapshot_ns = s.snapshot_ns.Get();
  o.wal_bytes = s.wal_bytes.Get();
  return o;
}

namespace {

template <typename Op>
NodeSample Combine(const NodeSample& a, const NodeSample& b, Op op) {
  NodeSample o;
  o.thread_cpu_ns = op(a.thread_cpu_ns, b.thread_cpu_ns);
  o.voluntary_switches = op(a.voluntary_switches, b.voluntary_switches);
  o.msgs_in = op(a.msgs_in, b.msgs_in);
  o.msgs_out = op(a.msgs_out, b.msgs_out);
  o.bytes_in = op(a.bytes_in, b.bytes_in);
  o.bytes_out = op(a.bytes_out, b.bytes_out);
  o.heartbeats_in = op(a.heartbeats_in, b.heartbeats_in);
  o.heartbeats_out = op(a.heartbeats_out, b.heartbeats_out);
  for (size_t t = 0; t < kNumMsgTypes; ++t) {
    o.in_by_type[t] = op(a.in_by_type[t], b.in_by_type[t]);
    o.out_by_type[t] = op(a.out_by_type[t], b.out_by_type[t]);
  }
  o.handler_ns = op(a.handler_ns, b.handler_ns);
  o.timer_ns = op(a.timer_ns, b.timer_ns);
  o.timer_fires = op(a.timer_fires, b.timer_fires);
  o.send_ns = op(a.send_ns, b.send_ns);
  o.relay_ns = op(a.relay_ns, b.relay_ns);
  o.appends = op(a.appends, b.appends);
  o.append_ns = op(a.append_ns, b.append_ns);
  o.syncs = op(a.syncs, b.syncs);
  o.sync_ns = op(a.sync_ns, b.sync_ns);
  o.snapshot_ns = op(a.snapshot_ns, b.snapshot_ns);
  o.wal_bytes = op(a.wal_bytes, b.wal_bytes);
  return o;
}

}  // namespace

NodeSample NodeSample::Minus(const NodeSample& e) const {
  return Combine(*this, e, std::minus<>());
}

NodeSample NodeSample::Plus(const NodeSample& other) const {
  return Combine(*this, other, std::plus<>());
}

uint64_t NodeSample::RoundMsgs() const {
  const auto req = static_cast<size_t>(MsgType::kLogSyncRequest);
  const auto resp = static_cast<size_t>(MsgType::kLogSyncResponse);
  const uint64_t catch_up = in_by_type[req] + in_by_type[resp] +
                            out_by_type[req] + out_by_type[resp];
  return msgs_in + msgs_out - heartbeats_in - heartbeats_out - catch_up;
}

// ---------------------------------------------------------------------------

/// The Env the wrapped replica is bound to. Forwards to the loop's own
/// Env (the ProbeActor's binding) and, when traced, times sends and
/// timer callbacks.
class ProbeActor::ProbeEnv final : public pig::Env {
 public:
  explicit ProbeEnv(ProbeActor* owner) : owner_(owner) {}

  NodeId self() const override { return outer()->self(); }
  pig::TimeNs Now() const override { return outer()->Now(); }
  pig::Rng& rng() override { return outer()->rng(); }
  void CancelTimer(pig::TimerId id) override { outer()->CancelTimer(id); }

  void Send(NodeId to, pig::MessagePtr msg) override {
    if (!owner_->traced_) {
      outer()->Send(to, std::move(msg));
      return;
    }
    NodeStats& s = *owner_->stats_;
    const int64_t t0 = ThreadCpuNs();
    const Message& m = *msg;
    s.msgs_out.Add(1);
    s.bytes_out.Add(m.WireSize());  // cached; the framer reuses it
    s.out_by_type[TypeIndex(m)].Add(1);
    if (IsHeartbeat(m)) s.heartbeats_out.Add(1);
    if (m.type() == MsgType::kClientReply) {
      const auto& reply = static_cast<const pig::ClientReply&>(m);
      s.events.push_back(
          {Event::kReplyOut, CommandId(to, reply.seq), WallNs(), 0});
    } else if (m.type() == MsgType::kRelayRequest) {
      const auto& req = static_cast<const RelayRequest&>(m);
      if (req.origin == self() && req.expects_response) {
        owner_->originates_relays_ = true;
        s.events.push_back({Event::kRelayOut, req.relay_id, WallNs(), 0});
      }
    }
    outer()->Send(to, std::move(msg));
    s.send_ns.Add(static_cast<uint64_t>(ThreadCpuNs() - t0));
  }

  pig::TimerId SetTimer(pig::TimeNs delay,
                        std::function<void()> cb) override {
    if (!owner_->traced_) return outer()->SetTimer(delay, std::move(cb));
    NodeStats* s = owner_->stats_;
    return outer()->SetTimer(delay, [s, cb = std::move(cb)]() {
      const int64_t t0 = ThreadCpuNs();
      cb();
      s->timer_ns.Add(static_cast<uint64_t>(ThreadCpuNs() - t0));
      s->timer_fires.Add(1);
    });
  }

  void ChargeCpu(pig::TimeNs cost) override { outer()->ChargeCpu(cost); }

 private:
  pig::Env* outer() const { return owner_->env(); }

  ProbeActor* owner_;
};

ProbeActor::ProbeActor(std::unique_ptr<pig::Actor> inner, NodeStats* stats,
                       bool traced)
    : inner_(std::move(inner)),
      stats_(stats),
      traced_(traced),
      env_proxy_(std::make_unique<ProbeEnv>(this)) {
  inner_->Bind(env_proxy_.get());
}

ProbeActor::~ProbeActor() = default;

void ProbeActor::OnStart() {
  // OnStart is the loop thread's first act: publish its CPU clock.
  stats_->tid = ::gettid();
  ::pthread_getcpuclockid(::pthread_self(), &stats_->cpu_clock);
  stats_->started.store(true, std::memory_order_release);
  if (!traced_) {
    inner_->OnStart();
    return;
  }
  const int64_t t0 = ThreadCpuNs();
  inner_->OnStart();
  stats_->handler_ns.Add(static_cast<uint64_t>(ThreadCpuNs() - t0));
}

void ProbeActor::CountIn(const Message& m) {
  NodeStats& s = *stats_;
  s.msgs_in.Add(1);
  s.bytes_in.Add(m.WireSize());
  s.in_by_type[TypeIndex(m)].Add(1);
  if (IsHeartbeat(m)) s.heartbeats_in.Add(1);
  if (m.type() == MsgType::kClientRequest) {
    const auto& req = static_cast<const pig::ClientRequest&>(m);
    s.events.push_back({Event::kRequestIn,
                        CommandId(req.cmd.client, req.cmd.seq), WallNs(), 0});
  } else if (m.type() == MsgType::kRelayResponse && originates_relays_) {
    const auto& resp = static_cast<const RelayResponse&>(m);
    s.events.push_back({Event::kRelayIn, resp.relay_id, WallNs(), 0});
  }
}

void ProbeActor::OnMessage(NodeId from, const pig::MessagePtr& msg) {
  if (!traced_) {
    inner_->OnMessage(from, msg);
    return;
  }
  CountIn(*msg);
  // Relay role: aggregating a group (a RelayRequest that names members,
  // or a member's RelayResponse). Only non-leader nodes are reported.
  const bool relay_role =
      msg->type() == MsgType::kRelayResponse ||
      (msg->type() == MsgType::kRelayRequest &&
       !static_cast<const RelayRequest&>(*msg).members.empty());
  const int64_t t0 = ThreadCpuNs();
  inner_->OnMessage(from, msg);
  const auto spent = static_cast<uint64_t>(ThreadCpuNs() - t0);
  stats_->handler_ns.Add(spent);
  if (relay_role) stats_->relay_ns.Add(spent);
}

// ---------------------------------------------------------------------------

void ProbeStorage::Append(const pig::storage::WalRecord& rec) {
  frame_.clear();
  pig::storage::AppendWalFrame(rec, &frame_);  // sizing only, untimed
  const int64_t t0 = WallNs();
  inner_->Append(rec);
  stats_->append_ns.Add(static_cast<uint64_t>(WallNs() - t0));
  stats_->appends.Add(1);
  stats_->wal_bytes.Add(frame_.size());
}

pig::Status ProbeStorage::Sync() {
  const uint64_t before = inner_->syncs();
  const int64_t t0 = WallNs();
  pig::Status st = inner_->Sync();
  const int64_t t1 = WallNs();
  if (inner_->syncs() != before) {  // a no-op Sync is not a barrier
    stats_->syncs.Add(1);
    stats_->sync_ns.Add(static_cast<uint64_t>(t1 - t0));
    stats_->events.push_back({Event::kSync, 0, t1, t1 - t0});
  }
  return st;
}

pig::Status ProbeStorage::WriteSnapshot(
    const pig::storage::SnapshotData& snap) {
  const int64_t t0 = WallNs();
  pig::Status st = inner_->WriteSnapshot(snap);
  stats_->snapshot_ns.Add(static_cast<uint64_t>(WallNs() - t0));
  return st;
}

}  // namespace consbench
