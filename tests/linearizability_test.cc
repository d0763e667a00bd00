// Linearizability tests: the checker itself, then live histories
// recorded against Paxos, PigPaxos, and EPaxos clusters under concurrent
// conflicting clients.
#include <gtest/gtest.h>

#include "linearizability.h"
#include "test_util.h"

namespace pig::test {
namespace {

// --- Checker unit tests -------------------------------------------------

HistoryOp Write(NodeId c, const std::string& k, const std::string& v,
                TimeNs inv, TimeNs comp) {
  return HistoryOp{c, false, k, v, inv, comp};
}
HistoryOp Read(NodeId c, const std::string& k, const std::string& v,
               TimeNs inv, TimeNs comp) {
  return HistoryOp{c, true, k, v, inv, comp};
}

TEST(LinearizabilityCheckerTest, AcceptsSequentialHistory) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Read(2, "x", "a", 20, 30),
      Write(1, "x", "b", 40, 50),
      Read(2, "x", "b", 60, 70),
  };
  EXPECT_EQ(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, AcceptsConcurrentEitherOrder) {
  // Read overlaps the write: both old and new value are linearizable.
  std::vector<HistoryOp> old_value = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 40),
      Read(2, "x", "a", 25, 35),
  };
  EXPECT_EQ(CheckLinearizability(old_value), "");
  std::vector<HistoryOp> new_value = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 40),
      Read(2, "x", "b", 25, 35),
  };
  EXPECT_EQ(CheckLinearizability(new_value), "");
}

TEST(LinearizabilityCheckerTest, RejectsStaleRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Write(1, "x", "b", 20, 30),   // strictly after "a"
      Read(2, "x", "a", 40, 50),    // strictly after "b": stale!
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsFutureRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 50, 60),
      Read(2, "x", "a", 0, 10),  // completed before the write existed
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsPhantomValue) {
  std::vector<HistoryOp> h = {Read(2, "x", "ghost", 0, 10)};
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, RejectsStaleInitialRead) {
  std::vector<HistoryOp> h = {
      Write(1, "x", "a", 0, 10),
      Read(2, "x", "", 20, 30),  // initial value after a completed write
  };
  EXPECT_NE(CheckLinearizability(h), "");
}

TEST(LinearizabilityCheckerTest, AcceptsInitialReadBeforeWrites) {
  std::vector<HistoryOp> h = {
      Read(2, "x", "", 0, 5),
      Write(1, "x", "a", 10, 20),
  };
  EXPECT_EQ(CheckLinearizability(h), "");
}

// --- Live histories -----------------------------------------------------

/// Closed-loop client recording a history of uniquely-valued writes and
/// reads over a tiny hot keyspace.
class HistoryClient : public Actor {
 public:
  HistoryClient(std::vector<HistoryOp>* sink, size_t num_replicas,
                bool random_target)
      : sink_(sink), n_(num_replicas), random_target_(random_target) {}

  void OnStart() override {
    env_->SetTimer(env_->rng().NextBounded(2 * kMillisecond),
                   [this]() { Issue(); });
  }

  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (msg->type() != MsgType::kClientReply) return;
    const auto& reply = static_cast<const ClientReply&>(*msg);
    if (reply.seq != seq_) return;
    if (reply.code == StatusCode::kNotLeader) {
      target_ = reply.leader_hint != kInvalidNode
                    ? reply.leader_hint
                    : (target_ + 1) % n_;
      Send();
      return;
    }
    current_.completed = env_->Now();
    if (current_.is_read) current_.value = reply.value;
    sink_->push_back(current_);
    Issue();
  }

 private:
  void Issue() {
    const bool read = env_->rng().NextBool(0.5);
    std::string key = "hot" + std::to_string(env_->rng().NextBounded(2));
    seq_++;
    current_ = HistoryOp{};
    current_.client = env_->self();
    current_.is_read = read;
    current_.key = key;
    current_.invoked = env_->Now();
    if (read) {
      cmd_ = Command::Get(key, env_->self(), seq_);
    } else {
      current_.value = "c" + std::to_string(env_->self() - kFirstClientId) +
                       "-" + std::to_string(seq_);
      cmd_ = Command::Put(key, current_.value, env_->self(), seq_);
    }
    Send();
  }

  void Send() {
    if (random_target_) {
      target_ = static_cast<NodeId>(env_->rng().NextBounded(n_));
    }
    env_->Send(target_, std::make_shared<ClientRequest>(cmd_));
  }

  std::vector<HistoryOp>* sink_;
  size_t n_;
  bool random_target_;
  NodeId target_ = 0;
  uint64_t seq_ = 0;
  Command cmd_;
  HistoryOp current_;
};

enum class Proto { kPaxos, kPig, kEPaxos };

std::vector<HistoryOp> RecordHistory(Proto proto, uint64_t seed) {
  sim::ClusterOptions copt;
  copt.seed = seed;
  sim::Cluster cluster(copt);
  constexpr size_t kNodes = 5;
  switch (proto) {
    case Proto::kPaxos: {
      paxos::PaxosOptions opt;
      AddReplicas(cluster, PaxosSpec(kNodes, opt));
      break;
    }
    case Proto::kPig: {
      pigpaxos::PigPaxosOptions opt;
      opt.num_relay_groups = 2;
      AddReplicas(cluster, PigSpec(kNodes, opt));
      break;
    }
    case Proto::kEPaxos: {
      epaxos::EPaxosOptions opt;
      AddReplicas(cluster, EPaxosSpec(kNodes, opt));
      break;
    }
  }
  std::vector<HistoryOp> history;
  for (uint32_t c = 0; c < 6; ++c) {
    cluster.AddClient(sim::Cluster::MakeClientId(c),
                      std::make_unique<HistoryClient>(
                          &history, kNodes, proto == Proto::kEPaxos));
  }
  cluster.Start();
  cluster.RunFor(3 * kSecond);
  return history;
}

class LiveLinearizabilityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(LiveLinearizabilityTest, HistoryIsLinearizable) {
  auto [proto_int, seed] = GetParam();
  auto history = RecordHistory(static_cast<Proto>(proto_int), seed);
  ASSERT_GT(history.size(), 500u) << "not enough completions recorded";
  EXPECT_EQ(CheckLinearizability(history), "");
}

std::string LiveCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
  static const char* kNames[] = {"Paxos", "PigPaxos", "EPaxos"};
  return std::string(kNames[std::get<0>(info.param)]) + "Seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, LiveLinearizabilityTest,
    ::testing::Values(std::make_tuple(0, 101ull), std::make_tuple(0, 102ull),
                      std::make_tuple(1, 101ull), std::make_tuple(1, 102ull),
                      std::make_tuple(1, 103ull), std::make_tuple(2, 101ull),
                      std::make_tuple(2, 102ull)),
    LiveCaseName);

}  // namespace
}  // namespace pig::test
