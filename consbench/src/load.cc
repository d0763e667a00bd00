#include "load.h"

#include <cstdio>
#include <memory>

#include "consensus/client_messages.h"
#include "probe.h"

namespace consbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string KeyName(size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%07zu", index);
  return buf;
}

std::string ValueFor(uint64_t seed, size_t client, uint64_t seq,
                     size_t bytes) {
  char tag[16];
  std::snprintf(tag, sizeof(tag), "%c%07llx", static_cast<char>('a' + client),
                static_cast<unsigned long long>(seq & 0xfffffffull));
  std::string v(tag, 8);
  uint64_t word = SplitMix(seed ^ (static_cast<uint64_t>(client) << 56) ^ seq);
  while (v.size() < bytes) {
    for (int i = 0; i < 16 && v.size() < bytes; ++i) {
      v.push_back(static_cast<char>('a' + ((word >> (4 * i)) & 0xf)));
    }
    word = SplitMix(word);
  }
  return v;
}

LoadClient::LoadClient(size_t index, const LoadSpec& spec,
                       LoadControl* control)
    : index_(index),
      spec_(spec),
      control_(control),
      first_key_(index * spec.num_keys / spec.num_clients),
      num_own_((index + 1) * spec.num_keys / spec.num_clients - first_key_),
      rng_state_(SplitMix(spec.seed * 0x2545f4914f6cdd1dull + index + 1)),
      target_(spec.leader),
      history_(num_own_) {}

uint64_t LoadClient::NextRand() {
  rng_state_ = SplitMix(rng_state_);
  return rng_state_;
}

void LoadClient::OnStart() { IssueNext(); }

void LoadClient::IssueNext() {
  const NodeId self = IdOf(index_);
  if (!loading_) {
    if (preload_next_ < num_own_) {
      // Preload: every owned key gets one write, in key order.
      current_key_ = preload_next_++;
      ++seq_;
      current_ = pig::Command::Put(
          KeyName(first_key_ + current_key_),
          ValueFor(spec_.seed, index_, seq_, spec_.value_bytes), self, seq_);
      ++attempted_;
      Send();
      return;
    }
    control_->preloaded.fetch_add(1, std::memory_order_acq_rel);
    WaitForGo();
    return;
  }
  if (control_->stop.load(std::memory_order_acquire)) {
    control_->idle.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  const uint64_t r = NextRand();
  current_key_ = static_cast<size_t>(r % num_own_);
  const bool read = static_cast<double>(r >> 40) <
                    spec_.read_share * static_cast<double>(1ull << 24);
  ++seq_;
  std::string key = KeyName(first_key_ + current_key_);
  current_ = read ? pig::Command::Get(std::move(key), self, seq_)
                  : pig::Command::Put(std::move(key),
                                      ValueFor(spec_.seed, index_, seq_,
                                               spec_.value_bytes),
                                      self, seq_);
  ++attempted_;
  Send();
}

void LoadClient::WaitForGo() {
  if (control_->go.load(std::memory_order_acquire)) {
    loading_ = true;
    IssueNext();
    return;
  }
  env_->SetTimer(pig::kMillisecond, [this]() { WaitForGo(); });
}

void LoadClient::Send() {
  outstanding_ = true;
  issued_at_ = WallNs();
  env_->Send(target_, std::make_shared<pig::ClientRequest>(current_));
}

void LoadClient::OnMessage(NodeId from, const pig::MessagePtr& msg) {
  (void)from;
  if (msg->type() != pig::MsgType::kClientReply) return;
  const auto& reply = static_cast<const pig::ClientReply&>(*msg);
  if (!outstanding_ || reply.seq != current_.seq) return;  // stale
  const int64_t now = WallNs();
  if (reply.code == pig::StatusCode::kNotLeader) {
    // Only before the bootstrap election completes: retry the same
    // command (same seq, so it executes at most once).
    if (reply.leader_hint != pig::kInvalidNode) target_ = reply.leader_hint;
    env_->SetTimer(pig::kMillisecond, [this]() { Send(); });
    return;
  }
  outstanding_ = false;
  std::vector<uint64_t>& writes = history_[current_key_];
  if (!reply.ok()) {
    ++failed_;
  } else if (current_.IsWrite()) {
    writes.push_back(current_.seq);
  } else {
    const std::string expected =
        writes.empty() ? std::string()
                       : ValueFor(spec_.seed, index_, writes.back(),
                                  spec_.value_bytes);
    if (reply.value != expected) ++failed_;
  }
  if (loading_) completions_.push_back({issued_at_, now, current_.seq});
  IssueNext();
}

}  // namespace consbench
