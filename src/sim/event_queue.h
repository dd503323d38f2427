// Pending-event set for the discrete-event kernel: a binary min-heap
// ordered by (time, priority, sequence number) so simultaneous events
// fire in a deterministic, FIFO order.
//
// The model is interval-synchronous: the scheduler ticks once per
// interval, so the set stays small.  Sampled before every pop, the
// simulator benchmark's workloads hold 2-9 pending events on average
// and at most 177, where a heap's O(log n) sift is a handful of
// compares.
//
// The heap orders 32-byte trivially-copyable entries; each callback
// lives in a slot of a free-listed table, so cancellation is O(1): it
// bumps the slot's generation and frees the callback at once.  The
// stale entry is dropped when it reaches the top, and the heap is
// compacted when dead entries pass 64 and outnumber live ones.
//
// See docs/performance.md §9 for the measured depths and costs.

#ifndef STAGGER_SIM_EVENT_QUEUE_H_
#define STAGGER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/hot_path.h"
#include "util/units.h"

namespace stagger {

/// Callback executed when an event fires.
using EventFn = std::function<void()>;

/// \brief Opaque handle to a scheduled event; used to cancel it.
///
/// valid() distinguishes a handle obtained from Schedule() from a
/// default-constructed one; it stays true after the event fires or is
/// cancelled (Cancel() reports liveness, the handle cannot).
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class EventQueue;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// \brief Time-ordered pending-event set (binary min-heap).
///
/// Not thread-safe — the simulation is single-threaded by design
/// (determinism over parallelism; see DESIGN.md).
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`.  Ties fire in ascending
  /// `priority`, then insertion order.
  EventHandle Schedule(SimTime when, EventFn fn, int priority = 0);

  /// Cancels a previously scheduled event; a handle that already fired
  /// or was cancelled is ignored.  Returns true if the event was live.
  /// The callback (and anything it captured) is destroyed before return.
  bool Cancel(EventHandle handle);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest live event; Max() if empty.
  STAGGER_HOT_PATH SimTime NextTime() const {
    return heap_.empty() ? SimTime::Max() : SimTime(heap_.front().time_us);
  }

  /// Removes and returns the earliest live event.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    int priority = 0;
    EventFn fn;
  };
  Fired PopNext();

  // --- introspection (tests) --------------------------------------------

  /// Heap entries, live or cancelled.  Bounds the lazy-deletion debt:
  /// compaction keeps it within a small constant of size().
  size_t buffered_entries() const { return heap_.size(); }

  /// Callback slots currently allocated (live events + free list).
  size_t allocated_slots() const { return slots_.size(); }

 private:
  /// Ordering record; the callback lives in `slots_[slot]`, which is
  /// live while its generation still equals `gen`.
  struct Entry {
    int64_t time_us;
    uint64_t seq;
    int32_t priority;
    uint32_t slot;
    uint32_t gen;
  };

  struct Slot {
    EventFn fn;
    uint32_t gen = 1;  ///< bumped on release; stale handles/entries mismatch
    uint32_t next_free = kNoSlot;
  };

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  /// Heap comparator: true when `a` fires after `b`, so the heap's top
  /// is the (time, priority, seq) minimum.
  static bool FiresAfter(const Entry& a, const Entry& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }

  bool Live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }

  /// Frees `slot` for reuse and hands back its callback.
  EventFn ReleaseSlot(uint32_t slot);
  /// Restores the invariant that the heap is empty or its top is live.
  void DropDeadTop();

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  std::vector<Entry> heap_;  ///< invariant: empty or top entry is live
  size_t size_ = 0;          ///< live events (scheduled, unfired)
  uint64_t next_seq_ = 1;
};

}  // namespace stagger

#endif  // STAGGER_SIM_EVENT_QUEUE_H_
