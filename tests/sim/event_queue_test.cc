#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace stagger {
namespace {

TEST(EventQueueTest, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), SimTime::Max());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(3), [&] { order.push_back(3); });
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(1); });
  q.Schedule(SimTime::Seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(SimTime::Seconds(1), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.PopNext().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PriorityBreaksTiesBeforeInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(1); }, /*priority=*/5);
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(2); }, /*priority=*/1);
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, NextTimeTracksEarliestLiveEvent) {
  EventQueue q;
  q.Schedule(SimTime::Seconds(5), [] {});
  EventHandle early = q.Schedule(SimTime::Seconds(2), [] {});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(2));
  EXPECT_TRUE(q.Cancel(early));
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(5));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [&] { ++fired; });
  q.Schedule(SimTime::Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [] {});
  q.PopNext();
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, InvalidHandleCancelIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventHandle()));
}

TEST(EventQueueTest, PopReturnsScheduledTime) {
  EventQueue q;
  q.Schedule(SimTime::Millis(250), [] {});
  auto fired = q.PopNext();
  EXPECT_EQ(fired.time, SimTime::Millis(250));
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify nondecreasing pop order.
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.Schedule(SimTime::Micros(static_cast<int64_t>(x % 1000000)), [] {});
  }
  SimTime last = SimTime::Zero();
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

TEST(EventQueueTest, ScheduleAndCancelChurnKeepsMemoryBounded) {
  EventQueue q;
  // One million schedule/cancel pairs against a small live set.  With
  // eager slot reclamation and heap compaction, neither the buffered
  // entries nor the slot table may grow with the churn count.
  std::vector<EventHandle> live;
  for (int i = 0; i < 64; ++i) {
    live.push_back(q.Schedule(SimTime::Micros(i), [] {}));
  }
  for (int i = 0; i < 1000000; ++i) {
    EventHandle h = q.Schedule(SimTime::Micros(i % 4096), [] {});
    EXPECT_TRUE(q.Cancel(h));
    EXPECT_FALSE(q.Cancel(h));  // generation check: stale handle
    EXPECT_TRUE(h.valid());     // validity is not liveness
  }
  EXPECT_EQ(q.size(), 64u);
  // Cancelled debt is compacted away: entries must stay within a small
  // constant of the live set, and slots must be recycled.
  EXPECT_LE(q.buffered_entries(), 64u + 256u);
  EXPECT_LE(q.allocated_slots(), 64u + 1024u);
  for (EventHandle& h : live) EXPECT_TRUE(q.Cancel(h));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.PopNext(), "PopNext on empty");
}

}  // namespace
}  // namespace stagger
