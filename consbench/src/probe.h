// Tracing seams of the consensus benchmark.
//
// Three wrappers sit around the program's public interfaces, so the
// program is measured exactly as it ships:
//   * ProbeActor wraps a replica's Actor: it times OnMessage with the
//     loop thread's CPU clock and counts messages and WireSize() by type;
//   * its Env proxy times Env::Send and wraps SetTimer callbacks;
//   * ProbeStorage decorates a storage::Storage (the durable workload).
// Untraced, ProbeActor only publishes its loop thread's CPU clock at
// OnStart and forwards every call; nothing is counted or timed.
#pragma once

#include <sys/types.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "consensus/env.h"
#include "storage/storage.h"

namespace consbench {

using pig::NodeId;

/// Monotonic wall clock shared by every thread of the benchmark (ns).
int64_t WallNs();

/// CPU time consumed so far by the calling thread (ns).
int64_t ThreadCpuNs();

/// A counter written by one loop thread and read by the main thread at
/// the edges of the timed window.
class Counter {
 public:
  void Add(uint64_t v) {
    v_.store(v_.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
  }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A timestamped span edge. Written only by the owning loop thread and
/// read only after the cluster has stopped (its threads are joined).
struct Event {
  enum Kind : uint8_t {
    kRequestIn,     ///< ClientRequest entered a handler; id = (client, seq).
    kReplyOut,      ///< ClientReply sent; id = (client, seq).
    kRelayOut,      ///< Origin sent a RelayRequest; id = relay_id.
    kRelayIn,       ///< RelayResponse entered a handler; id = relay_id.
    kSync,          ///< Storage::Sync ended; aux = its duration (ns).
  };
  Kind kind;
  uint64_t id;
  int64_t at;
  int64_t aux;
};

/// (client, seq) packed into one span identifier.
inline uint64_t CommandId(NodeId client, uint64_t seq) {
  return (static_cast<uint64_t>(client) << 40) ^ seq;
}

inline constexpr size_t kNumMsgTypes = 256;

/// What the probes record for one node.
struct NodeStats {
  // Published once by the loop thread in OnStart.
  std::atomic<bool> started{false};
  clockid_t cpu_clock{};
  pid_t tid = 0;

  Counter msgs_in, msgs_out, bytes_in, bytes_out;
  Counter heartbeats_in, heartbeats_out;  ///< Heartbeat payloads, any envelope.
  std::array<Counter, kNumMsgTypes> in_by_type, out_by_type;
  Counter handler_ns;   ///< Thread CPU inside OnStart/OnMessage.
  Counter timer_ns;     ///< Thread CPU inside timer callbacks.
  Counter timer_fires;
  Counter send_ns;      ///< Thread CPU inside Env::Send (encode + append).
  Counter relay_ns;     ///< Thread CPU on relay-role RelayRequest/Response.

  // Storage decorator (durable workload only). Times are wall clock:
  // an fdatasync blocks rather than burns CPU.
  Counter appends, append_ns, syncs, sync_ns, snapshot_ns, wal_bytes;

  std::vector<Event> events;
};

/// Plain copy of one node's counters at a window edge.
struct NodeSample {
  int64_t thread_cpu_ns = 0;
  uint64_t voluntary_switches = 0;
  uint64_t msgs_in = 0, msgs_out = 0, bytes_in = 0, bytes_out = 0;
  uint64_t heartbeats_in = 0, heartbeats_out = 0;
  std::array<uint64_t, kNumMsgTypes> in_by_type{}, out_by_type{};
  uint64_t handler_ns = 0, timer_ns = 0, timer_fires = 0, send_ns = 0,
           relay_ns = 0;
  uint64_t appends = 0, append_ns = 0, syncs = 0, sync_ns = 0,
           snapshot_ns = 0, wal_bytes = 0;

  /// Reads every counter, the loop thread's CPU clock and, when
  /// `switches`, its voluntary context switches from /proc.
  static NodeSample Take(const NodeStats& s, bool switches);
  /// Field by field: this - earlier, and this + other.
  NodeSample Minus(const NodeSample& earlier) const;
  NodeSample Plus(const NodeSample& other) const;

  /// Messages in and out that belong to replication rounds, i.e. all but
  /// heartbeats and log catch-up (LogSyncRequest/Response), which the
  /// §6.1 per-command model leaves out and the report counts apart.
  uint64_t RoundMsgs() const;
};

/// Wraps one replica. `traced` selects full instrumentation; otherwise
/// only the loop thread's CPU clock is published.
class ProbeActor final : public pig::Actor {
 public:
  ProbeActor(std::unique_ptr<pig::Actor> inner, NodeStats* stats,
             bool traced);
  ~ProbeActor() override;

  void OnStart() override;
  void OnMessage(NodeId from, const pig::MessagePtr& msg) override;

 private:
  class ProbeEnv;
  void CountIn(const pig::Message& msg);

  std::unique_ptr<pig::Actor> inner_;
  NodeStats* stats_;
  const bool traced_;
  bool originates_relays_ = false;  ///< Has sent a round's RelayRequest.
  std::unique_ptr<ProbeEnv> env_proxy_;
};

/// Times and counts every call into a wrapped Storage.
class ProbeStorage final : public pig::storage::Storage {
 public:
  ProbeStorage(pig::storage::Storage* inner, NodeStats* stats)
      : inner_(inner), stats_(stats) {}

  void Append(const pig::storage::WalRecord& rec) override;
  pig::Status Sync() override;
  pig::Status WriteSnapshot(const pig::storage::SnapshotData& snap) override;
  std::optional<pig::storage::SnapshotData> LoadSnapshot() override {
    return inner_->LoadSnapshot();
  }
  size_t ReplayWal(
      const std::function<void(const pig::storage::WalRecord&)>& fn)
      override {
    return inner_->ReplayWal(fn);
  }
  uint64_t appended_records() const override {
    return inner_->appended_records();
  }
  uint64_t syncs() const override { return inner_->syncs(); }

 private:
  pig::storage::Storage* inner_;
  NodeStats* stats_;
  std::vector<uint8_t> frame_;  // scratch: sizes each appended record
};

}  // namespace consbench
