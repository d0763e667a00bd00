// Closed-loop load generator and the output model it keeps.
//
// Each client owns a disjoint quarter of the keyspace and keeps exactly
// one command outstanding, with no think time. Because no other client
// writes its keys, the client knows every key's state exactly: the model
// is the list of acknowledged writes per key, in acknowledgement order.
// Every Get reply is checked against it on arrival; the replicas' final
// stores are checked against it after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "consensus/env.h"
#include "statemachine/command.h"

namespace consbench {

using pig::NodeId;

/// Inputs shared by every client of one run. Everything random derives
/// from `seed`.
struct LoadSpec {
  uint64_t seed = 1;
  size_t num_keys = 1000;
  size_t num_clients = 4;
  double read_share = 0.5;
  size_t value_bytes = 8;
  NodeId leader = 0;  ///< Bootstrap leader; redirects are still followed.
};

/// Main thread <-> client loop threads.
struct LoadControl {
  std::atomic<bool> go{false};    ///< Preload done everywhere: start load.
  std::atomic<bool> stop{false};  ///< Finish the outstanding command, idle.
  std::atomic<int> preloaded{0};  ///< Clients whose preload is acknowledged.
  std::atomic<int> idle{0};       ///< Clients idle after `stop`.
};

/// One acknowledged command of the load phase (steady-clock ns).
struct Completion {
  int64_t issued;
  int64_t done;
  uint64_t seq;
};

/// The key a global index names: 8 bytes, "k" + 7 digits.
std::string KeyName(size_t index);

/// The value written by (client, seq): an 8-byte tag naming the writer,
/// then deterministic filler up to `bytes`.
std::string ValueFor(uint64_t seed, size_t client, uint64_t seq,
                     size_t bytes);

class LoadClient final : public pig::Actor {
 public:
  LoadClient(size_t index, const LoadSpec& spec, LoadControl* control);

  void OnStart() override;
  void OnMessage(NodeId from, const pig::MessagePtr& msg) override;

  static NodeId IdOf(size_t index) {
    return pig::kFirstClientId + static_cast<NodeId>(index);
  }

  // Read after the client's cluster has stopped.
  size_t index() const { return index_; }
  size_t first_key() const { return first_key_; }
  /// Acknowledged-write seqs per owned key (position = key - first_key),
  /// in the order they were applied.
  const std::vector<std::vector<uint64_t>>& history() const {
    return history_;
  }
  const std::deque<Completion>& completions() const { return completions_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void IssueNext();
  void Send();
  void WaitForGo();
  uint64_t NextRand();

  const size_t index_;
  const LoadSpec spec_;
  LoadControl* control_;
  const size_t first_key_;
  const size_t num_own_;

  uint64_t rng_state_;
  size_t preload_next_ = 0;
  bool loading_ = false;  ///< Past preload and `go`.
  bool outstanding_ = false;
  NodeId target_;

  uint64_t seq_ = 0;
  pig::Command current_;
  size_t current_key_ = 0;  ///< Owned-key position of current_.
  int64_t issued_at_ = 0;

  std::vector<std::vector<uint64_t>> history_;
  // A deque grows in fixed blocks: no doubling copy whose size would step
  // the process's peak RSS between runs of different lengths.
  std::deque<Completion> completions_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace consbench
