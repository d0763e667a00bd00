// Ablation for §4.3 (improving reads): log-serialized reads vs Paxos
// Quorum Reads on a 9-node PigPaxos cluster.
//
// Expectation: PQR answers reads from a majority of followers without
// the leader, so read-heavy workloads scale past the leader's ceiling
// and read latency drops below the consensus round trip.
#include <cstdio>
#include <memory>

#include "client/closed_loop_client.h"
#include "harness/experiment.h"
#include "paxos/quorum_reads.h"

using namespace pig;
using namespace pig::harness;

namespace {

/// Closed-loop client that issues PQR reads (majority fan-out) mixed with
/// leader writes.
class PqrClient : public Actor {
 public:
  PqrClient(size_t num_replicas, double read_ratio,
            std::shared_ptr<client::Recorder> recorder)
      : n_(num_replicas), read_ratio_(read_ratio), recorder_(recorder) {}

  void OnStart() override {
    workload_ = std::make_unique<client::WorkloadGenerator>(
        client::WorkloadConfig{});
    env_->SetTimer(
        static_cast<TimeNs>(env_->rng().NextBounded(5 * kMillisecond)),
        [this]() { IssueNext(); });
  }

  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (msg->type() == MsgType::kQuorumReadReply) {
      const auto& reply = static_cast<const paxos::QuorumReadReply&>(*msg);
      if (!coordinator_ || !coordinator_->OnReply(reply)) {
        if (coordinator_ && coordinator_->needs_rinse() &&
            reply.read_id == coordinator_->read_id()) {
          // Rinse: retry the read until the pending write lands.
          StartRead();
        }
        return;
      }
      recorder_->RecordCompletion(issued_at_, env_->Now(), true);
      coordinator_.reset();
      IssueNext();
      return;
    }
    if (msg->type() == MsgType::kClientReply) {
      const auto& reply = static_cast<const ClientReply&>(*msg);
      if (reply.seq != seq_) return;
      recorder_->RecordCompletion(issued_at_, env_->Now(), false);
      IssueNext();
    }
  }

 private:
  void IssueNext() {
    if (env_->rng().NextDouble() < read_ratio_) {
      issued_at_ = env_->Now();
      StartRead();
    } else {
      issued_at_ = env_->Now();
      Command cmd = Command::Put(
          workload_->KeyAt(env_->rng().NextBounded(1000)), "v",
          env_->self(), ++seq_);
      env_->Send(0, std::make_shared<ClientRequest>(cmd));
    }
  }

  void StartRead() {
    uint64_t read_id = ++next_read_id_;
    coordinator_ =
        std::make_unique<paxos::QuorumReadCoordinator>(n_, read_id);
    auto req = std::make_shared<paxos::QuorumReadRequest>();
    req->key = workload_->KeyAt(env_->rng().NextBounded(1000));
    req->read_id = read_id;
    // Contact a majority of replicas, leader excluded when possible.
    size_t quorum = n_ / 2 + 1;
    for (size_t i = 0; i < quorum; ++i) {
      env_->Send(static_cast<NodeId>(n_ - 1 - i), req);
    }
  }

  size_t n_;
  double read_ratio_;
  std::shared_ptr<client::Recorder> recorder_;
  std::unique_ptr<client::WorkloadGenerator> workload_;
  std::unique_ptr<paxos::QuorumReadCoordinator> coordinator_;
  uint64_t seq_ = 0;
  uint64_t next_read_id_ = 0;
  TimeNs issued_at_ = 0;
};

double RunPqr(size_t clients, double read_ratio, double* mean_ms) {
  sim::ClusterOptions copt;
  copt.seed = 42;
  sim::Cluster cluster(copt);
  ReplicaSpec spec;
  spec.protocol = Protocol::kPigPaxos;
  spec.num_replicas = 9;
  spec.pig.num_relay_groups = 2;
  for (NodeId i = 0; i < 9; ++i) {
    cluster.AddReplica(i, MakeReplica(spec, i));
  }
  auto recorder = std::make_shared<client::Recorder>();
  recorder->SetWindow(1 * kSecond, 4 * kSecond);
  for (size_t i = 0; i < clients; ++i) {
    cluster.AddClient(
        sim::Cluster::MakeClientId(static_cast<uint32_t>(i)),
        std::make_unique<PqrClient>(9, read_ratio, recorder));
  }
  cluster.Start();
  cluster.RunUntil(4 * kSecond);
  *mean_ms = recorder->latency().MeanMillis();
  return recorder->Throughput();
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation §4.3: log-serialized reads vs Paxos Quorum Reads, "
      "9-node PigPaxos ===\nworkload: 90%% reads / 10%% writes\n\n");

  std::printf(" reads via  | clients | tput(req/s) | mean(ms)\n");
  std::printf(" -----------+---------+-------------+---------\n");
  for (size_t clients : {16, 64, 256}) {
    ExperimentConfig cfg;
    cfg.replica.protocol = Protocol::kPigPaxos;
    cfg.replica.num_replicas = 9;
    cfg.replica.pig.num_relay_groups = 2;
    cfg.workload.read_ratio = 0.9;
    cfg.num_clients = clients;
    cfg.seed = 42;
    RunResult log_reads = RunExperiment(cfg);
    std::printf(" %-10s | %7zu | %11.1f | %8.3f\n", "log", clients,
                log_reads.throughput, log_reads.mean_ms);
  }
  for (size_t clients : {16, 64, 256}) {
    double mean_ms = 0;
    double tput = RunPqr(clients, 0.9, &mean_ms);
    std::printf(" %-10s | %7zu | %11.1f | %8.3f\n", "PQR", clients, tput,
                mean_ms);
  }
  std::printf(
      "\nPQR serves reads from follower majorities, bypassing the leader "
      "(§4.3), so\nread-heavy workloads scale past the leader ceiling.\n");
  return 0;
}
