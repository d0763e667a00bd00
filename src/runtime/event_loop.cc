#include "runtime/event_loop.h"

#include <chrono>

#include "common/logging.h"

namespace pig::runtime {

using std::chrono::steady_clock;

WallClock::WallClock() : epoch_(steady_clock::now()) {}

void WallClock::Reset() { epoch_ = steady_clock::now(); }

TimeNs WallClock::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady_clock::now() - epoch_)
      .count();
}

/// Env implementation backing one EventLoop: Send goes through the
/// pluggable Transport; timers live in the loop's table.
class EventLoop::LoopEnv final : public Env {
 public:
  LoopEnv(EventLoop* loop, Rng rng) : loop_(loop), rng_(rng) {}

  NodeId self() const override { return loop_->id_; }
  TimeNs Now() const override { return loop_->Now(); }

  void Send(NodeId to, MessagePtr msg) override {
    loop_->transport_->Send(loop_->id_, to, std::move(msg));
  }

  TimerId SetTimer(TimeNs delay, std::function<void()> cb) override {
    std::lock_guard<std::mutex> lock(loop_->mu_);
    const TimerId id = loop_->next_timer_id_++;
    const TimeNs deadline = Now() + delay;
    loop_->timers_.emplace(std::make_pair(deadline, id), std::move(cb));
    loop_->deadline_of_.emplace(id, deadline);
    loop_->cv_.notify_one();
    return id;
  }

  void CancelTimer(TimerId id) override {
    std::lock_guard<std::mutex> lock(loop_->mu_);
    auto it = loop_->deadline_of_.find(id);
    if (it == loop_->deadline_of_.end()) return;  // fired or cancelled
    loop_->timers_.erase(std::make_pair(it->second, id));
    loop_->deadline_of_.erase(it);
  }

  Rng& rng() override { return rng_; }

 private:
  EventLoop* loop_;
  Rng rng_;
};

EventLoop::EventLoop(NodeId id, std::unique_ptr<Actor> actor,
                     Transport* transport, const WallClock* clock,
                     uint64_t seed)
    : id_(id),
      actor_(std::move(actor)),
      transport_(transport),
      clock_(clock) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (id + 1)));
  env_ = std::make_unique<LoopEnv>(this, rng);
  actor_->Bind(env_.get());
}

EventLoop::~EventLoop() = default;

TimeNs EventLoop::Now() const { return clock_->Now(); }

void EventLoop::Deliver(NodeId from, std::vector<uint8_t> wire) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mailbox_.push_back(Mail{from, std::move(wire)});
  }
  cv_.notify_one();
}

std::vector<uint8_t> EventLoop::AcquireWireBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wire_pool_.empty()) return {};
  std::vector<uint8_t> buf = std::move(wire_pool_.back());
  wire_pool_.pop_back();
  return buf;
}

void EventLoop::Wake() { cv_.notify_all(); }

void EventLoop::StartActor() { actor_->OnStart(); }

bool EventLoop::FireDueTimers() {
  bool fired = false;
  std::unique_lock<std::mutex> lock(mu_);
  const TimeNs now = Now();
  // The first entry is always the earliest, whatever the callbacks armed
  // or cancelled meanwhile.
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto due = timers_.extract(timers_.begin());
    deadline_of_.erase(due.key().second);
    lock.unlock();
    due.mapped()();
    lock.lock();
    fired = true;
  }
  return fired;
}

bool EventLoop::DispatchQueuedMail() {
  Mail mail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (mailbox_.empty()) return false;
    mail = std::move(mailbox_.front());
    mailbox_.pop_front();
  }
  DispatchWire(mail.from, mail.wire.data(), mail.wire.size());
  // Hand the drained buffer back to future senders.
  std::lock_guard<std::mutex> lock(mu_);
  if (wire_pool_.size() < kMaxPooledWireBuffers) {
    wire_pool_.push_back(std::move(mail.wire));
  }
  return true;
}

void EventLoop::DispatchWire(NodeId from, const uint8_t* data,
                             size_t size) {
  MessagePtr msg;
  Status s = DecodeMessage(data, size, &msg);
  if (s.ok()) {
    actor_->OnMessage(from, msg);
  } else {
    PIG_LOG(kError) << "node " << id_ << ": decode failed: " << s.ToString();
  }
}

TimeNs EventLoop::NextTimerDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.empty() ? -1 : timers_.begin()->first.first;
}

void EventLoop::WaitForWork(TimeNs max_wait) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!mailbox_.empty()) return;
  TimeNs wait = max_wait;
  if (!timers_.empty()) {
    wait = std::min(wait, timers_.begin()->first.first - Now());
  }
  if (wait <= 0) return;
  cv_.wait_for(lock, std::chrono::nanoseconds(wait));
}

void EventLoop::Run(const std::atomic<bool>& alive) {
  StartActor();
  while (alive.load(std::memory_order_acquire)) {
    if (FireDueTimers()) continue;
    if (DispatchQueuedMail()) continue;
    WaitForWork(/*max_wait=*/50 * kMillisecond);
  }
}

}  // namespace pig::runtime
