// Pending-event set for the discrete-event kernel: a calendar (bucket)
// queue keyed by time, ordered by (time, priority, sequence number) so
// simultaneous events fire in a deterministic, FIFO order.
//
// The model is interval-synchronous: events land on instants spaced one
// scheduler interval apart, and each instant is mostly that one tick
// (the simulator benchmark measures 1.00-1.01 events per distinct
// (time, priority) key).  The calendar exploits the regular spacing:
//
//   * Time is divided into fixed-width "days" of 2^13 us (~8.2 ms); a
//     ring of 256 days (one "year", ~2.1 s) holds the near future, with
//     an ordered overflow map for anything beyond the current year.
//     Scheduling is an O(1) amortized append; each far-future event
//     migrates from the overflow map into the ring at most once.
//   * A day is sorted lazily, only when it becomes the earliest
//     non-empty bucket; a bitmap over the ring finds that bucket with a
//     handful of word scans instead of a heap sift.
//   * Cancellation is O(1) through generation-checked slots and frees
//     the callback eagerly; only a 32-byte trivially-copyable entry
//     stays behind (reclaimed by compaction before it can accumulate).
//
// See docs/performance.md §9 for the ordering proof sketch and the
// measured speedups over the binary-heap kernel this replaces.

#ifndef STAGGER_SIM_EVENT_QUEUE_H_
#define STAGGER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "util/bitmap.h"
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

/// \brief Time-ordered pending-event set (calendar queue).
///
/// Not thread-safe — the simulation is single-threaded by design
/// (determinism over parallelism; see DESIGN.md).
class EventQueue {
 public:
  /// Calendar geometry: days of 2^kDayShift microseconds, kNumDays days
  /// per ring year.  Exposed so stress tests can construct pathological
  /// bucket patterns (one event per day, one event per year, ...).
  static constexpr int kDayShift = 13;
  static constexpr int64_t kDayMicros = int64_t{1} << kDayShift;
  static constexpr int32_t kNumDays = 256;

  EventQueue();

  /// Schedules `fn` at absolute time `when`.  Ties fire in ascending
  /// `priority`, then insertion order.
  EventHandle Schedule(SimTime when, EventFn fn, int priority = 0);

  /// Cancels a previously scheduled event; a handle that already fired
  /// or was cancelled is ignored.  Returns true if the event was live.
  /// The callback (and anything it captured) is destroyed immediately.
  bool Cancel(EventHandle handle);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest live event; Max() if empty.
  SimTime NextTime() const;

  /// Removes and returns the earliest live event.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    int priority = 0;
    EventFn fn;
  };
  Fired PopNext();

  // --- introspection (tests) --------------------------------------------

  /// Entries buffered across all days and the overflow map, live or
  /// cancelled.  Bounds the lazy-deletion debt: a cancelled event's
  /// callback is freed eagerly, and the 32-byte entry left behind is
  /// compacted away before it can accumulate.
  size_t buffered_entries() const;

  /// Callback slots currently allocated (live events + free-list).
  size_t allocated_slots() const { return num_slots_; }

 private:
  /// 32-byte trivially-copyable ordering record; the callback itself
  /// lives in the slot so sorting and compaction move plain bytes and
  /// cancellation can free the closure without finding the entry.
  struct Entry {
    int64_t time_us;
    uint64_t seq;
    int32_t priority;
    uint32_t slot;
    uint32_t gen;
  };

  /// 64-byte aligned so every slot occupies exactly one cache line:
  /// pops visit slots in key order (random w.r.t. allocation order), and
  /// a straddling slot would cost two misses per visit.
  struct alignas(64) Slot {
    EventFn fn;
    int64_t time_us = 0;
    uint32_t gen = 1;        ///< bumped on free; stale handles/entries mismatch
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  /// One calendar day: entries append unsorted and are sorted once,
  /// lazily, when the day becomes the earliest non-empty bucket.
  struct Day {
    std::vector<Entry> entries;
    uint32_t consumed = 0;  ///< sorted prefix already popped
    uint32_t dead = 0;      ///< cancelled entries still buffered (approximate)
    bool sorted = false;
  };

  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  /// Slots live in fixed 64 KB chunks (1024 slots): growing the table
  /// never reallocates, so no std::function move-copies the way a flat
  /// vector's growth would, and slot addresses stay stable.
  static constexpr uint32_t kSlotChunkShift = 10;
  static constexpr uint32_t kSlotsPerChunk = 1u << kSlotChunkShift;

  static int64_t DayOf(int64_t time_us) { return time_us >> kDayShift; }
  static bool KeyLess(const Entry& a, const Entry& b) {
    if (a.time_us != b.time_us) return a.time_us < b.time_us;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq < b.seq;
  }

  bool InRing(int64_t day) const {
    return day >= ring_base_ && day < ring_base_ + kNumDays;
  }
  Slot& SlotAt(uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotsPerChunk - 1)];
  }
  const Slot& SlotAt(uint32_t slot) const {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotsPerChunk - 1)];
  }

  bool EntryLive(const Entry& e) const {
    const Slot& s = SlotAt(e.slot);
    return s.live && s.gen == e.gen;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);

  /// Day `day`'s bucket, creating it on demand (`create`); nullptr when
  /// absent and !create.
  Day* ResolveDay(int64_t day, bool create);
  /// Sorts the unsorted suffix [consumed, end) by (time, priority, seq).
  void SortBucket(Day* d);
  void InsertEntry(const Entry& e);
  /// Releases an exhausted bucket: ring days keep their capacity for
  /// the next year, overflow days are erased.
  void ReleaseDay(int64_t day, Day* d);
  /// Moves the ring onto the year containing `day` and migrates every
  /// overflow day inside the new year into it.  Precondition: the ring
  /// is empty and `day` >= ring_base_ + kNumDays.
  void RebaseRing(int64_t day);
  /// The earliest bucket holding a live event, sorted with its dead
  /// prefix skipped; nullptr when the queue holds no live event.
  Day* EnsureFront(int64_t* day_index);

  /// Cancellation bookkeeping: count the dead entry against its bucket
  /// and compact when cancelled debt dominates the bucket.
  void NoteDead(const Slot& s);

  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  uint32_t num_slots_ = 0;
  uint32_t free_head_ = kNoSlot;

  std::vector<Day> ring_;       ///< kNumDays buckets, year-aligned
  Bitmap ring_occupied_;        ///< one bit per non-empty ring day
  std::map<int64_t, Day> overflow_;  ///< days outside the ring window
  int64_t ring_base_ = 0;       ///< first day of the ring year (multiple of kNumDays)
  int64_t cursor_ = 0;          ///< no day below this holds a live entry

  /// Memoized EnsureFront result: the sorted bucket holding the queue's
  /// minimum, so consecutive pops skip the bitmap walk.  Invalidated
  /// when an insert lands on an earlier day (same-day inserts keep the
  /// sorted front intact), when the bucket is released, and on rebase;
  /// a dead front entry is detected per-pop and falls back to the walk.
  Day* front_day_ = nullptr;
  int64_t front_day_num_ = 0;

  std::vector<uint64_t> sort_keys_;  ///< SortBucket scratch (packed keys)
  std::vector<Entry> sort_scratch_;  ///< SortBucket scratch (permutation)

  size_t size_ = 0;             ///< live events (scheduled, unfired)
  uint64_t next_seq_ = 1;
};

}  // namespace stagger

#endif  // STAGGER_SIM_EVENT_QUEUE_H_
