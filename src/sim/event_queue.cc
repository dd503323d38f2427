#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace stagger {
namespace {

// The heap is compacted once more than this many cancelled entries have
// accumulated AND they outnumber the live ones, so compaction cost is
// amortized against the cancellations that caused it.
constexpr size_t kCompactDeadMin = 64;

}  // namespace

EventFn EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  EventFn fn = std::move(s.fn);
  s.fn = nullptr;
  // gen 0 is reserved: a (slot 0, gen 0) handle would alias the invalid
  // default-constructed EventHandle.
  if (++s.gen == 0) s.gen = 1;
  s.next_free = free_head_;
  free_head_ = slot;
  return fn;
}

void EventQueue::DropDeadTop() {
  // heap_.size() - size_ counts dead entries; with none, skip the slot
  // lookup.
  while (heap_.size() > size_ && !Live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter);
    heap_.pop_back();
  }
}

EventHandle EventQueue::Schedule(SimTime when, EventFn fn, int priority) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{when.micros(), next_seq_++, priority, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), FiresAfter);
  ++size_;
  return EventHandle((uint64_t{slot} << 32) | s.gen);
}

bool EventQueue::Cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const uint32_t slot = static_cast<uint32_t>(handle.id_ >> 32);
  const uint32_t gen = static_cast<uint32_t>(handle.id_);
  // A stale generation means the event already fired or was cancelled
  // (and the slot possibly reused): a no-op returning false.
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  // Held until return, so a destructor in the closure that re-enters
  // the queue sees consistent state.
  const EventFn doomed = ReleaseSlot(slot);
  --size_;
  const size_t dead = heap_.size() - size_;
  if (dead > kCompactDeadMin && dead > size_) {
    std::erase_if(heap_, [this](const Entry& e) { return !Live(e); });
    std::make_heap(heap_.begin(), heap_.end(), FiresAfter);
  } else {
    DropDeadTop();
  }
  return true;
}

STAGGER_HOT_PATH EventQueue::Fired EventQueue::PopNext() {
  STAGGER_CHECK(size_ != 0) << "PopNext on empty event queue";
  std::pop_heap(heap_.begin(), heap_.end(), FiresAfter);
  const Entry e = heap_.back();
  heap_.pop_back();
  Fired fired{SimTime(e.time_us), e.priority, ReleaseSlot(e.slot)};
  --size_;
  DropDeadTop();
  return fired;
}

}  // namespace stagger
