#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace stagger {
namespace {

// A bucket is compacted when at least this many cancelled entries have
// accumulated AND they make up half the unconsumed region, so compaction
// cost is amortized against the cancellations that caused it.
constexpr uint32_t kCompactDeadMin = 64;

}  // namespace

EventQueue::EventQueue() : ring_(kNumDays), ring_occupied_(kNumDays) {}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    free_head_ = SlotAt(slot).next_free;
    return slot;
  }
  if ((num_slots_ & (kSlotsPerChunk - 1)) == 0) {
    slot_chunks_.emplace_back(new Slot[kSlotsPerChunk]);
  }
  return num_slots_++;
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.fn = nullptr;  // destroy the closure eagerly (no lazy-deletion leak)
  s.live = false;
  // gen 0 is reserved: a (slot 0, gen 0) handle would alias the invalid
  // default-constructed EventHandle.
  if (++s.gen == 0) s.gen = 1;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventQueue::Day* EventQueue::ResolveDay(int64_t day, bool create) {
  if (InRing(day)) {
    // ring_base_ is a multiple of kNumDays, so day & (kNumDays-1) is the
    // ring offset even for negative day numbers (two's complement).
    const int32_t off = static_cast<int32_t>(day & (kNumDays - 1));
    Day* d = &ring_[static_cast<size_t>(off)];
    if (!ring_occupied_.Test(off)) {
      if (!create) return nullptr;
      ring_occupied_.Set(off);
    }
    return d;
  }
  if (!create) {
    auto it = overflow_.find(day);
    return it == overflow_.end() ? nullptr : &it->second;
  }
  return &overflow_[day];
}

void EventQueue::InsertEntry(const Entry& e) {
  const int64_t day = DayOf(e.time_us);
  Day* d;
  if (InRing(day)) {
    // Ring fast path: marking an already-occupied day is idempotent, so
    // skip ResolveDay's test-and-branch.
    const int32_t off = static_cast<int32_t>(day & (kNumDays - 1));
    ring_occupied_.Set(off);
    d = &ring_[static_cast<size_t>(off)];
  } else {
    d = ResolveDay(day, /*create=*/true);
  }
  if (d->consumed == d->entries.size() && d->consumed != 0) {
    // Every buffered entry was already popped; restart the bucket
    // instead of growing behind a fully-consumed prefix.
    d->entries.clear();
    d->consumed = 0;
    d->dead = 0;
    d->sorted = false;
  }
  if (d->sorted) {
    // The active front bucket stays sorted: place the entry by full
    // (time, priority, seq) key.  Equal-key entries differ in seq, so
    // upper_bound yields a unique deterministic position.
    auto it = std::upper_bound(
        d->entries.begin() + static_cast<ptrdiff_t>(d->consumed),
        d->entries.end(), e, KeyLess);
    d->entries.insert(it, e);
  } else {
    d->entries.push_back(e);
  }
  if (day < cursor_) cursor_ = day;
  // An earlier day outranks the memoized front; a same-day insert lands
  // behind (or, sorted, at) the consumption point, keeping it valid.
  if (front_day_ != nullptr && day < front_day_num_) front_day_ = nullptr;
}

void EventQueue::ReleaseDay(int64_t day, Day* d) {
  if (d == front_day_) front_day_ = nullptr;
  if (InRing(day)) {
    // Keep the vector's capacity: the ring slot will host this
    // allocation again one year from now.
    d->entries.clear();
    d->consumed = 0;
    d->dead = 0;
    d->sorted = false;
    ring_occupied_.Clear(static_cast<int32_t>(day & (kNumDays - 1)));
  } else {
    overflow_.erase(day);  // invalidates *d
  }
}

void EventQueue::RebaseRing(int64_t day) {
  STAGGER_DCHECK(ring_occupied_.FindNextSet(0) < 0);
  STAGGER_DCHECK(day >= ring_base_ + kNumDays);
  front_day_ = nullptr;
  ring_base_ = day & ~int64_t{kNumDays - 1};
  cursor_ = ring_base_;
  // Migrate every overflow day that now falls inside the ring's year.
  auto it = overflow_.begin();
  while (it != overflow_.end() && it->first < ring_base_ + kNumDays) {
    const int32_t off = static_cast<int32_t>(it->first & (kNumDays - 1));
    ring_[static_cast<size_t>(off)] = std::move(it->second);
    ring_occupied_.Set(off);
    it = overflow_.erase(it);
  }
}

STAGGER_HOT_PATH EventQueue::Day* EventQueue::EnsureFront(int64_t* day_index) {
  // Memoized front: the common case is a run of pops from one sorted
  // bucket, so skip the overflow probe + bitmap walk + sort check.
  if (front_day_ != nullptr && front_day_->consumed < front_day_->entries.size() &&
      EntryLive(front_day_->entries[front_day_->consumed])) {
    if (day_index != nullptr) *day_index = front_day_num_;
    return front_day_;
  }
  for (;;) {
    int64_t day;
    Day* d;
    if (!overflow_.empty() && overflow_.begin()->first < ring_base_) {
      // Days before the ring's year (events scheduled in the relative
      // past) are served straight from the ordered map.
      day = overflow_.begin()->first;
      d = &overflow_.begin()->second;
    } else {
      const int64_t from = cursor_ - ring_base_;
      const int32_t off =
          ring_occupied_.FindNextSet(from > 0 ? static_cast<int32_t>(from) : 0);
      if (off >= 0) {
        day = ring_base_ + off;
        d = &ring_[static_cast<size_t>(off)];
      } else if (!overflow_.empty()) {
        RebaseRing(overflow_.begin()->first);
        continue;
      } else {
        return nullptr;  // no live event
      }
    }
    cursor_ = day;
    if (!d->sorted) SortBucket(d);
    while (d->consumed < d->entries.size()) {
      const Entry& e = d->entries[d->consumed];
      if (EntryLive(e)) {
        front_day_ = d;
        front_day_num_ = day;
        if (day_index != nullptr) *day_index = day;
        return d;
      }
      ++d->consumed;  // cancelled: its closure is long freed, skip
      if (d->dead > 0) --d->dead;
    }
    ReleaseDay(day, d);
  }
}

void EventQueue::SortBucket(Day* d) {
  auto begin = d->entries.begin() + static_cast<ptrdiff_t>(d->consumed);
  const size_t n = static_cast<size_t>(d->entries.end() - begin);
  d->sorted = true;
  if (n < 2) return;
  if (n >= (size_t{1} << 19)) {
    // Packed keys below reserve 19 bits for the position; a larger
    // range falls back to the direct three-field comparison sort.
    std::sort(begin, d->entries.end(), KeyLess);
    return;
  }
  // Sort packed 8-byte keys instead of 32-byte entries, then apply the
  // permutation: the sort's data-dependent swaps move a quarter of the
  // bytes, and each comparison is one integer compare instead of up to
  // three.  Key layout, most significant first:
  //   offset : 13  time within the day (time_us & (kDayMicros-1))
  //   pri    : 32  priority, biased to preserve order unsigned
  //   index  : 19  position in the unsorted suffix
  // The suffix is appended in schedule order, so index order IS seq
  // order and the key sort reproduces (time, priority, seq) exactly
  // (ties are impossible: index is unique).
  sort_keys_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = begin[i];
    const uint64_t offset =
        static_cast<uint64_t>(e.time_us) & (kDayMicros - 1);
    const uint64_t pri =
        static_cast<uint32_t>(e.priority) ^ (uint32_t{1} << 31);
    sort_keys_.push_back((offset << 51) | (pri << 19) | i);
  }
  std::sort(sort_keys_.begin(), sort_keys_.end());
  sort_scratch_.clear();
  for (const uint64_t key : sort_keys_) {
    sort_scratch_.push_back(begin[key & ((size_t{1} << 19) - 1)]);
  }
  std::copy(sort_scratch_.begin(), sort_scratch_.end(), begin);
}

EventHandle EventQueue::Schedule(SimTime when, EventFn fn, int priority) {
  const uint32_t slot = AllocSlot();
  Slot& s = SlotAt(slot);
  s.fn = std::move(fn);
  s.time_us = when.micros();
  s.live = true;
  InsertEntry(Entry{s.time_us, next_seq_++, priority, slot, s.gen});
  ++size_;
  return EventHandle((uint64_t{slot} << 32) | s.gen);
}

bool EventQueue::Cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const uint32_t slot = static_cast<uint32_t>(handle.id_ >> 32);
  const uint32_t gen = static_cast<uint32_t>(handle.id_);
  // Only live (scheduled, unfired, uncancelled) events can be
  // cancelled; a stale generation means the event already fired or was
  // cancelled (and the slot possibly reused), a no-op returning false.
  if (slot >= num_slots_) return false;
  Slot& s = SlotAt(slot);
  if (!s.live || s.gen != gen) return false;
  NoteDead(s);
  FreeSlot(slot);
  --size_;
  return true;
}

void EventQueue::NoteDead(const Slot& s) {
  const int64_t day = DayOf(s.time_us);
  Day* d = ResolveDay(day, /*create=*/false);
  if (d == nullptr) return;
  ++d->dead;
  const size_t remaining = d->entries.size() - d->consumed;
  if (d->dead >= kCompactDeadMin && d->dead * 2 >= remaining) {
    // Keep only live entries (order-preserving, so sortedness holds).
    size_t out = 0;
    for (size_t i = d->consumed; i < d->entries.size(); ++i) {
      if (EntryLive(d->entries[i])) d->entries[out++] = d->entries[i];
    }
    d->entries.resize(out);
    d->consumed = 0;
    d->dead = 0;
    if (d->entries.empty()) ReleaseDay(day, d);
  }
}

STAGGER_HOT_PATH SimTime EventQueue::NextTime() const {
  if (size_ == 0) return SimTime::Max();
  // Advancing past dead (cancelled) entries does not change observable
  // state, so it is safe behind const.
  Day* d = const_cast<EventQueue*>(this)->EnsureFront(nullptr);
  STAGGER_CHECK(d != nullptr);
  return SimTime(d->entries[d->consumed].time_us);
}

STAGGER_HOT_PATH EventQueue::Fired EventQueue::PopNext() {
  STAGGER_CHECK(size_ != 0) << "PopNext on empty event queue";
  int64_t day;
  Day* d = EnsureFront(&day);
  STAGGER_CHECK(d != nullptr);
  const Entry e = d->entries[d->consumed];
  // Slots are visited in key order — random w.r.t. the slot array — so
  // pull a later entry's slot in now; by the time the pops reach it the
  // line has arrived (same idiom as the scheduler's stream walk).
  if (d->consumed + 4 < d->entries.size()) {
    __builtin_prefetch(&SlotAt(d->entries[d->consumed + 4].slot));
  }
  ++d->consumed;
  if (d->consumed == d->entries.size()) ReleaseDay(day, d);
  Fired fired{SimTime(e.time_us), e.priority, std::move(SlotAt(e.slot).fn)};
  FreeSlot(e.slot);
  --size_;
  return fired;
}

size_t EventQueue::buffered_entries() const {
  size_t n = 0;
  for (const Day& d : ring_) n += d.entries.size() - d.consumed;
  for (const auto& [day, d] : overflow_) {
    (void)day;
    n += d.entries.size() - d.consumed;
  }
  return n;
}

}  // namespace stagger
