#include "edc/sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace edc {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(3), [&] { order.push_back(3); });
  loop.Schedule(Millis(1), [&] { order.push_back(1); });
  loop.Schedule(Millis(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(3));
}

TEST(EventLoopTest, SameTimeFifoBySchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(1), [&] {
    loop.Schedule(Millis(1), [&] {
      ++fired;
      EXPECT_EQ(loop.now(), Millis(2));
    });
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TimerId id = loop.Schedule(Millis(1), [&] { ran = true; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int runs = 0;
  TimerId id = loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Run();
  loop.Cancel(id);  // must not crash or affect later timers
  loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Run();
  EXPECT_EQ(runs, 2);
}

TEST(EventLoopTest, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(10), [&] { ++fired; });
  loop.Schedule(Millis(30), [&] { ++fired; });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), Millis(20));
  loop.RunUntil(Millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(Millis(1), [&] {
    ++fired;
    loop.Stop();
  });
  loop.Schedule(Millis(2), [&] { ++fired; });
  loop.Run();
  EXPECT_EQ(fired, 1);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.Schedule(Millis(5), [&] {
    loop.Schedule(-Millis(10), [&] { EXPECT_EQ(loop.now(), Millis(5)); });
  });
  loop.Run();
}

TEST(EventLoopTest, PendingCountExcludesCancelled) {
  EventLoop loop;
  TimerId a = loop.Schedule(Millis(1), [] {});
  loop.Schedule(Millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, CancelOfFiredTimerLeavesPendingExact) {
  EventLoop loop;
  TimerId fired = loop.Schedule(Millis(1), [] {});
  loop.RunUntil(Millis(1));
  loop.Schedule(Millis(1), [] {});
  loop.Cancel(fired);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(loop.pending(), 0u);
  loop.Cancel(fired);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, DoubleCancelIsNoop) {
  EventLoop loop;
  int runs = 0;
  TimerId a = loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Schedule(Millis(2), [&] { ++runs; });
  loop.Cancel(a);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.Run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, CancelOfRunningEventFromItsOwnCallbackIsNoop) {
  EventLoop loop;
  int runs = 0;
  TimerId self = kInvalidTimer;
  self = loop.Schedule(Millis(1), [&] {
    ++runs;
    loop.Cancel(self);  // the running event's own id: a no-op
    // Re-arm from inside the callback, the ZabNode::ArmTimer pattern. The new
    // event takes the slot just freed; the stale id must not cancel it.
    TimerId rearmed = loop.Schedule(Millis(1), [&] { ++runs; });
    EXPECT_EQ(static_cast<uint32_t>(rearmed), static_cast<uint32_t>(self));
    loop.Cancel(self);
    self = rearmed;
  });
  loop.Schedule(Millis(5), [&] { ++runs; });
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.events_processed(), 3u);
}

TEST(EventLoopTest, StaleIdDoesNotCancelEventReusingItsSlot) {
  EventLoop loop;
  int runs = 0;
  TimerId old_id = loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Cancel(old_id);
  TimerId reused = loop.Schedule(Millis(1), [&] { ++runs; });
  // Same slot (low 32 bits), newer generation: a different id.
  EXPECT_EQ(static_cast<uint32_t>(reused), static_cast<uint32_t>(old_id));
  EXPECT_NE(reused, old_id);
  loop.Cancel(old_id);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(runs, 1);

  // The same through a fired (not cancelled) event.
  TimerId fired = loop.Schedule(Millis(1), [&] { ++runs; });
  loop.Run();
  TimerId next = loop.Schedule(Millis(1), [&] { ++runs; });
  EXPECT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(fired));
  loop.Cancel(fired);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(runs, 3);
}

TEST(EventLoopTest, InvalidAndUnknownIdsAreNoops) {
  EventLoop loop;
  loop.Schedule(Millis(1), [] {});
  loop.Cancel(kInvalidTimer);
  loop.Cancel(TimerId{12345});
  loop.Cancel(~TimerId{0});
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.Run(), 1u);
}

TEST(EventLoopTest, CancelKeepsOrderOfRemainingEvents) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<TimerId> ids;
  // Interleaved equal and distinct times; cancel every third from the middle
  // of the heap so removal sifts both ways.
  for (int i = 0; i < 60; ++i) {
    ids.push_back(loop.Schedule(Micros((i * 37) % 11), [&order, i] { order.push_back(i); }));
  }
  std::vector<int> expect;
  for (int i = 0; i < 60; ++i) {
    if (i % 3 == 1) {
      loop.Cancel(ids[static_cast<size_t>(i)]);
    } else {
      expect.push_back(i);
    }
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](int a, int b) { return (a * 37) % 11 < (b * 37) % 11; });
  EXPECT_EQ(loop.pending(), expect.size());
  loop.Run();
  EXPECT_EQ(order, expect);
}

TEST(EventLoopTest, CancelReleasesCallbackCaptures) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  TimerId id = loop.Schedule(Millis(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  loop.Cancel(id);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace edc
