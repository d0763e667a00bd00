// Unit tests for runtime::EventLoop's timer table: timers fire in
// deadline order, and callbacks may cancel or arm timers while the table
// is being drained.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/event_loop.h"

namespace pig {
namespace {

using runtime::EventLoop;
using runtime::WallClock;

class NullTransport final : public runtime::Transport {
 public:
  void Send(NodeId, NodeId, MessagePtr) override {}
};

class IdleActor final : public Actor {
 public:
  void OnMessage(NodeId, const MessagePtr&) override {}
};

class EventLoopTest : public ::testing::Test {
 protected:
  EventLoopTest()
      : loop_(/*id=*/0, std::make_unique<IdleActor>(), &transport_, &clock_,
              /*seed=*/1) {}

  Env& env() { return *loop_.actor()->env(); }

  /// Sleeps until every timer armed so far is due.
  void WaitPast(TimeNs deadline) {
    while (loop_.Now() <= deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  NullTransport transport_;
  WallClock clock_;
  EventLoop loop_;
};

TEST_F(EventLoopTest, FiresDueTimersInDeadlineOrder) {
  std::vector<int> fired;
  const TimeNs before = loop_.Now();
  env().SetTimer(30 * kMillisecond, [&]() { fired.push_back(30); });
  env().SetTimer(10 * kMillisecond, [&]() { fired.push_back(10); });
  env().SetTimer(20 * kMillisecond, [&]() { fired.push_back(20); });
  env().SetTimer(10 * kMillisecond, [&]() { fired.push_back(11); });
  const TimeNs after = loop_.Now();

  // The next deadline is the earliest armed one, not the first armed.
  const TimeNs next = loop_.NextTimerDeadline();
  EXPECT_GE(next, before + 10 * kMillisecond);
  EXPECT_LE(next, after + 10 * kMillisecond);
  EXPECT_FALSE(loop_.FireDueTimers());  // nothing due yet

  WaitPast(after + 30 * kMillisecond);
  EXPECT_TRUE(loop_.FireDueTimers());
  // Equal delays keep their arming order.
  EXPECT_EQ(fired, (std::vector<int>{10, 11, 20, 30}));
  EXPECT_EQ(loop_.NextTimerDeadline(), -1);
  EXPECT_FALSE(loop_.FireDueTimers());
}

TEST_F(EventLoopTest, CallbackCancelsAnotherDueTimer) {
  std::vector<int> fired;
  TimerId victim = 0;
  TimerId self = 0;
  self = env().SetTimer(1 * kMillisecond, [&]() {
    fired.push_back(1);
    env().CancelTimer(victim);
    env().CancelTimer(self);  // already fired: a no-op
  });
  victim = env().SetTimer(2 * kMillisecond, [&]() { fired.push_back(2); });
  env().SetTimer(3 * kMillisecond, [&]() { fired.push_back(3); });

  WaitPast(loop_.Now() + 5 * kMillisecond);
  EXPECT_TRUE(loop_.FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(loop_.NextTimerDeadline(), -1);
}

TEST_F(EventLoopTest, CallbackArmsTimers) {
  std::vector<int> fired;
  TimeNs near_deadline = 0;
  TimeNs far_deadline = 0;
  env().SetTimer(1 * kMillisecond, [&]() {
    fired.push_back(1);
    far_deadline = loop_.Now() + 3600 * kSecond;
    env().SetTimer(3600 * kSecond, [&]() { fired.push_back(3); });
    near_deadline = loop_.Now() + 2 * kMillisecond;
    env().SetTimer(2 * kMillisecond, [&]() { fired.push_back(2); });
  });

  WaitPast(loop_.Now() + 1 * kMillisecond);
  EXPECT_TRUE(loop_.FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1}));
  // The timer armed last is due first.
  TimeNs next = loop_.NextTimerDeadline();
  EXPECT_GE(next, near_deadline);
  EXPECT_LT(next, near_deadline + kMillisecond);

  WaitPast(next);
  EXPECT_TRUE(loop_.FireDueTimers());
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));

  // Only the far timer is left.
  next = loop_.NextTimerDeadline();
  EXPECT_GE(next, far_deadline);
  EXPECT_LT(next, far_deadline + kMillisecond);
  EXPECT_FALSE(loop_.FireDueTimers());
}

}  // namespace
}  // namespace pig
