// Differential test of the calendar-queue event kernel against the
// binary-heap implementation it replaced.  The reference below is the
// old heap verbatim (modulo naming): (time, priority, seq) heap with
// lazy cancellation through id sets.  Every observable — firing order,
// NextTime(), size(), Cancel() return values — must match the calendar
// queue at every step of a randomized op sequence, across seeds that
// exercise clustered instants, far-future overflow (multiple ring
// years), priority ties, and cancels and schedules at the key being
// drained.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/units.h"

namespace stagger {
namespace {

// The pre-calendar binary-heap event queue, kept as an executable
// specification.  Interface matches EventQueue except that handles are
// plain ids (EventHandle's constructor is private to EventQueue).
class ReferenceEventQueue {
 public:
  struct Fired {
    SimTime time;
    EventFn fn;
  };

  uint64_t Schedule(SimTime when, EventFn fn, int priority = 0) {
    const uint64_t id = next_seq_++;
    heap_.push(Entry{when, priority, id, id, std::move(fn)});
    live_ids_.insert(id);
    return id;
  }

  bool Cancel(uint64_t id) {
    if (id == 0) return false;
    if (live_ids_.erase(id) == 0) return false;
    cancelled_ids_.insert(id);
    return true;
  }

  bool empty() const { return live_ids_.empty(); }
  size_t size() const { return live_ids_.size(); }

  SimTime NextTime() const {
    auto* self = const_cast<ReferenceEventQueue*>(this);
    self->SkipCancelled();
    if (heap_.empty()) return SimTime::Max();
    return heap_.top().time;
  }

  Fired PopNext() {
    SkipCancelled();
    Entry& top = const_cast<Entry&>(heap_.top());
    Fired fired{top.time, std::move(top.fn)};
    live_ids_.erase(top.id);
    heap_.pop();
    return fired;
  }

 private:
  struct Entry {
    SimTime time;
    int priority;
    uint64_t seq;
    uint64_t id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  void SkipCancelled() {
    while (!heap_.empty()) {
      auto it = cancelled_ids_.find(heap_.top().id);
      if (it == cancelled_ids_.end()) return;
      cancelled_ids_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<uint64_t> live_ids_;
  std::unordered_set<uint64_t> cancelled_ids_;
  uint64_t next_seq_ = 1;
};

// One scheduled event mirrored into both queues.
struct Mirrored {
  EventHandle cal_handle;
  uint64_t ref_handle = 0;
};

// Seed-dependent time distribution.  Cycles through regimes so every
// seed stresses a different bucket pattern:
//   0: clustered — a handful of distinct instants (dense ties)
//   1: uniform within one ring year
//   2: far future — spans many ring years (overflow + rebase)
//   3: day-aligned — exact multiples of the calendar day width
int64_t DrawTime(Rng& rng, uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return static_cast<int64_t>(rng.NextBounded(16)) * 12345;
    case 1:
      return static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 21));
    case 2:
      return static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 34));
    default:
      return static_cast<int64_t>(rng.NextBounded(512)) *
             EventQueue::kDayMicros;
  }
}

// Runs `rounds` random ops on both queues, asserting every observable
// matches after every op.  Pops go through PopNext on both sides.
void RunLockstep(uint64_t seed, int rounds) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  Rng rng(seed);
  EventQueue cal;
  ReferenceEventQueue ref;
  std::vector<Mirrored> events;
  std::vector<size_t> cal_log;
  std::vector<size_t> ref_log;

  for (int round = 0; round < rounds; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.5) {
      const size_t index = events.size();
      const SimTime when = SimTime::Micros(DrawTime(rng, seed));
      const int priority = static_cast<int>(rng.NextBounded(7)) - 3;
      Mirrored m;
      m.cal_handle =
          cal.Schedule(when, [&cal_log, index] { cal_log.push_back(index); },
                       priority);
      m.ref_handle =
          ref.Schedule(when, [&ref_log, index] { ref_log.push_back(index); },
                       priority);
      EXPECT_TRUE(m.cal_handle.valid());
      events.push_back(m);
    } else if (action < 0.75 && !events.empty()) {
      // Cancel a random event: maybe live, maybe fired, maybe already
      // cancelled.  Both queues must agree on the return value.
      Mirrored& m = events[rng.NextBounded(events.size())];
      const bool ref_result = ref.Cancel(m.ref_handle);
      const bool cal_result = cal.Cancel(m.cal_handle);
      ASSERT_EQ(cal_result, ref_result);
    } else if (!ref.empty()) {
      ASSERT_FALSE(cal.empty());
      ReferenceEventQueue::Fired rf = ref.PopNext();
      EventQueue::Fired cf = cal.PopNext();
      ASSERT_EQ(cf.time, rf.time);
      rf.fn();
      cf.fn();
      ASSERT_EQ(cal_log, ref_log);
    }
    ASSERT_EQ(cal.size(), ref.size());
    ASSERT_EQ(cal.empty(), ref.empty());
    ASSERT_EQ(cal.NextTime(), ref.NextTime());
  }

  // Drain both; identical residue in identical order.
  while (!ref.empty()) {
    ASSERT_EQ(cal.NextTime(), ref.NextTime());
    ReferenceEventQueue::Fired rf = ref.PopNext();
    EventQueue::Fired cf = cal.PopNext();
    ASSERT_EQ(cf.time, rf.time);
    rf.fn();
    cf.fn();
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal_log, ref_log);
}

// Schedules a batch of `rounds` events, then drains both queues one pop
// at a time with adversarial interference after each pop: cancels
// (often of events at the instant being drained) and schedules that
// precede, tie with or follow the (time, priority) just fired.
void RunInterferingDrain(uint64_t seed, int rounds) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  Rng rng(seed);
  EventQueue cal;
  ReferenceEventQueue ref;
  std::vector<Mirrored> events;
  std::vector<size_t> cal_log;
  std::vector<size_t> ref_log;

  auto schedule = [&](SimTime when, int priority) {
    const size_t index = events.size();
    Mirrored m;
    m.cal_handle =
        cal.Schedule(when, [&cal_log, index] { cal_log.push_back(index); },
                     priority);
    m.ref_handle =
        ref.Schedule(when, [&ref_log, index] { ref_log.push_back(index); },
                     priority);
    events.push_back(m);
  };

  for (int i = 0; i < rounds; ++i) {
    schedule(SimTime::Micros(DrawTime(rng, seed)),
             static_cast<int>(rng.NextBounded(5)) - 2);
  }

  while (!ref.empty()) {
    ASSERT_FALSE(cal.empty());
    ReferenceEventQueue::Fired rf = ref.PopNext();
    EventQueue::Fired cf = cal.PopNext();
    ASSERT_EQ(cf.time, rf.time);
    rf.fn();
    cf.fn();
    ASSERT_EQ(cal_log, ref_log);
    ASSERT_EQ(cal.size(), ref.size());

    const double interfere = rng.NextDouble();
    if (interfere < 0.15 && !events.empty()) {
      // Cancel a random event — possibly the next one at this key; it
      // must not fire from either queue.
      Mirrored& m = events[rng.NextBounded(events.size())];
      ASSERT_EQ(cal.Cancel(m.cal_handle), ref.Cancel(m.ref_handle));
    } else if (interfere < 0.3) {
      // Schedule relative to the key just fired: before it (the new
      // event becomes the front), tying with it (fires at this key,
      // after the events already waiting there), or after it.
      const int64_t base = cf.time.micros();
      const uint64_t mode = rng.NextBounded(3);
      int64_t when = base;
      int priority = cf.priority;
      if (mode == 0) {
        when = base - static_cast<int64_t>(rng.NextBounded(
                          static_cast<uint64_t>(base) + 1));
        priority = static_cast<int>(rng.NextBounded(5)) - 2;
      } else if (mode == 2) {
        when = base + 1 + static_cast<int64_t>(rng.NextBounded(1 << 16));
        priority = static_cast<int>(rng.NextBounded(5)) - 2;
      }
      schedule(SimTime::Micros(when), priority);
    }
    ASSERT_EQ(cal.NextTime(), ref.NextTime());
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal_log, ref_log);
}

TEST(EventQueueEquivalenceTest, LockstepMatchesReferenceAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    RunLockstep(seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueEquivalenceTest, BatchedDrainMatchesReferenceAcrossSeeds) {
  for (uint64_t seed = 101; seed <= 156; ++seed) {
    RunInterferingDrain(seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueEquivalenceTest, CancelAfterFireAgreesWithReference) {
  EventQueue cal;
  ReferenceEventQueue ref;
  EventHandle ch = cal.Schedule(SimTime::Micros(5), [] {});
  uint64_t rh = ref.Schedule(SimTime::Micros(5), [] {});
  cal.PopNext();
  ref.PopNext();
  EXPECT_EQ(cal.Cancel(ch), ref.Cancel(rh));
  EXPECT_FALSE(cal.Cancel(ch));
}

}  // namespace
}  // namespace stagger
