#include "disk/disk_array.h"

#include <algorithm>

#include "util/check.h"

namespace stagger {

Result<DiskArray> DiskArray::Create(int32_t num_disks, const DiskParameters& params,
                                    int32_t num_spares) {
  if (num_disks < 1) {
    return Status::InvalidArgument("disk array needs at least one disk");
  }
  if (num_spares < 0) {
    return Status::InvalidArgument("spare count must be >= 0");
  }
  STAGGER_RETURN_NOT_OK(params.Validate());
  std::vector<Disk> drives;
  drives.reserve(static_cast<size_t>(num_disks + num_spares));
  for (int32_t i = 0; i < num_disks + num_spares; ++i) {
    drives.emplace_back(i, params);
  }
  return DiskArray(std::move(drives), params, num_disks, num_spares);
}

DiskArray::DiskArray(std::vector<Disk> drives, DiskParameters params,
                     int32_t num_slots, int32_t num_spares)
    : drives_(std::move(drives)), params_(params), num_slots_(num_slots),
      num_spares_(num_spares), clock_(std::make_unique<IntervalClock>()),
      latent_errors_(std::make_unique<LatentErrorMap>()) {
  latent_errors_->AttachClock(clock_.get());
  slot_to_drive_.resize(static_cast<size_t>(num_slots));
  for (int32_t i = 0; i < num_slots; ++i) slot_to_drive_[static_cast<size_t>(i)] = i;
  for (int32_t s = 0; s < num_spares; ++s) free_spares_.push_back(num_slots + s);
  for (Disk& d : drives_) d.AttachClock(clock_.get());
  busy_drives_.Resize(static_cast<int32_t>(drives_.size()));
  drive_busy_intervals_.assign(drives_.size(), 0);
  unavailable_slots_.Resize(num_slots);
}

bool DiskArray::RunIsIdle(DiskId start, int32_t len) const {
  STAGGER_CHECK(len >= 0 && len <= num_disks());
  for (int32_t i = 0; i < len; ++i) {
    if (SlotBusy(Wrap(static_cast<int64_t>(start) + i))) return false;
  }
  return true;
}

void DiskArray::ReserveRunRemapped(DiskId start, int32_t len) {
  for (int32_t i = 0; i < len; ++i) {
    ReserveSlot(Wrap(static_cast<int64_t>(start) + i));
  }
}

int32_t DiskArray::IdleCount() const {
  int32_t idle = 0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    if (!SlotBusy(d)) ++idle;
  }
  return idle;
}

int32_t DiskArray::IdleAvailableCount() const {
  int32_t idle = 0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    if (!SlotBusy(d) && !unavailable_slots_.Test(d)) ++idle;
  }
  return idle;
}

void DiskArray::NoteAvailabilityChange(DiskId slot, bool was) {
  const bool now = disk(slot).available();
  if (was == now) return;
  if (now) {
    unavailable_slots_.Clear(slot);
    --unavailable_count_;
  } else {
    unavailable_slots_.Set(slot);
    ++unavailable_count_;
  }
}

void DiskArray::DropDegradedSlot(DiskId slot) {
  auto it = std::lower_bound(degraded_slots_.begin(), degraded_slots_.end(), slot);
  if (it != degraded_slots_.end() && *it == slot) degraded_slots_.erase(it);
}

void DiskArray::FailDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  if (disk(slot).health() == DiskHealth::kDegraded) DropDegradedSlot(slot);
  disk(slot).Fail();
  NoteAvailabilityChange(slot, was);
}

void DiskArray::StallDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Stall();
  NoteAvailabilityChange(slot, was);
}

void DiskArray::DegradeDisk(DiskId id, int32_t percent) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Degrade(percent);
  auto it = std::lower_bound(degraded_slots_.begin(), degraded_slots_.end(), slot);
  STAGGER_CHECK(it == degraded_slots_.end() || *it != slot);
  degraded_slots_.insert(it, slot);
  NoteAvailabilityChange(slot, was);
}

void DiskArray::RecoverDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  if (disk(slot).health() == DiskHealth::kDegraded) DropDegradedSlot(slot);
  disk(slot).Recover();
  NoteAvailabilityChange(slot, was);
}

Result<int32_t> DiskArray::AcquireSpare() {
  if (free_spares_.empty()) {
    return Status::ResourceExhausted("no free hot-spare drive");
  }
  const int32_t drive = free_spares_.back();
  free_spares_.pop_back();
  claimed_spares_.push_back(drive);
  return drive;
}

void DiskArray::ReturnSpare(int32_t drive) {
  auto it = std::find(claimed_spares_.begin(), claimed_spares_.end(), drive);
  STAGGER_CHECK(it != claimed_spares_.end())
      << "drive " << drive << " is not a claimed spare";
  claimed_spares_.erase(it);
  free_spares_.push_back(drive);
}

void DiskArray::PromoteSpare(DiskId slot, int32_t drive) {
  STAGGER_CHECK(slot >= 0 && slot < num_slots_) << "bad slot " << slot;
  auto it = std::find(claimed_spares_.begin(), claimed_spares_.end(), drive);
  STAGGER_CHECK(it != claimed_spares_.end())
      << "drive " << drive << " is not a claimed spare";
  Disk& old = drives_[DriveOf(slot)];
  STAGGER_CHECK(old.health() == DiskHealth::kFailed)
      << "slot " << slot << " promoted while its drive is not failed";
  Disk& fresh = drives_[static_cast<size_t>(drive)];
  // Carry the slot's storage accounting over so later frees balance.
  const int64_t used = old.used_cylinders();
  STAGGER_CHECK_OK(fresh.AllocateStorage(used));
  old.FreeStorage(used);
  claimed_spares_.erase(it);
  slot_to_drive_[static_cast<size_t>(slot)] = drive;
  // Adjacent slots may now straddle non-adjacent drives, so ReserveRun
  // must fall back to per-slot reservation from here on.
  dense_slots_ = false;
  // The slot flips from failed to healthy: its new drive is fresh.
  NoteAvailabilityChange(slot, /*was=*/false);
  // The rebuilt content was reconstructed from verified survivors onto
  // fresh media, so whatever latent errors the dead drive carried are
  // gone with it.
  latent_errors_->DropDiskRebuilt(slot);
  // The dead drive stays retired: it is reachable by no slot and never
  // returns to the spare pool.
}

STAGGER_HOT_PATH void DiskArray::EndInterval() {
  // Fold this interval's reservations into the per-drive busy counts
  // here rather than in ReserveDrive: the bitmap walk visits drives in
  // ascending order, so the counter array fills sequentially
  // (prefetch-friendly) instead of being hit in placement order from
  // the scheduler's read loop.
  busy_drives_.ForEachSet(
      [this](int32_t drive) { ++drive_busy_intervals_[static_cast<size_t>(drive)]; });
  busy_drives_.ClearAll();
  ++clock_->intervals;
  if (!degraded_slots_.empty()) {
    // Advance the stragglers' duty cycles so the availability bitmap is
    // right for the interval that just opened.
    for (const DiskId slot : degraded_slots_) {
      Disk& d = disk(slot);
      const bool was = d.available();
      d.AdvanceDegradedInterval();
      NoteAvailabilityChange(slot, was);
    }
    degraded_disk_intervals_ += static_cast<int64_t>(degraded_slots_.size());
  }
}

int64_t DiskArray::TotalCylinders() const {
  int64_t total = 0;
  for (int32_t d = 0; d < num_slots_; ++d) total += disk(d).total_cylinders();
  return total;
}

int64_t DiskArray::FreeCylinders() const {
  int64_t free = 0;
  for (int32_t d = 0; d < num_slots_; ++d) free += disk(d).free_cylinders();
  return free;
}

double DiskArray::MeanUtilization() const {
  double sum = 0.0;
  for (int32_t d = 0; d < num_slots_; ++d) sum += SlotUtilization(d);
  return sum / static_cast<double>(num_slots_);
}

double DiskArray::MaxUtilization() const {
  double best = 0.0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::max(best, SlotUtilization(d));
  }
  return best;
}

double DiskArray::MinUtilization() const {
  double best = 1.0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::min(best, SlotUtilization(d));
  }
  return best;
}

int64_t DiskArray::MaxUsedCylinders() const {
  int64_t best = 0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::max(best, disk(d).used_cylinders());
  }
  return best;
}

int64_t DiskArray::MinUsedCylinders() const {
  int64_t best = num_slots_ == 0 ? 0 : disk(0).used_cylinders();
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::min(best, disk(d).used_cylinders());
  }
  return best;
}

}  // namespace stagger
