// The farm of D disks.  Provides modular-adjacent idle-run queries used
// by staggered-striping admission, aggregate capacity accounting, and
// utilization reporting.
//
// Hot spares (fault-tolerance layer, src/rebuild/): the array may be
// created with S spare drives beyond the D addressable slots.  Layouts
// and schedulers address *slots*; a slot resolves to a physical drive
// through an indirection table.  Promoting a spare rewires a failed
// slot onto a healthy drive without renaming any fragment, so a
// rebuilt array is bit-identical to the pre-failure placement in slot
// space — the invariant the rebuild subsystem audits.
//
// Per-interval cost: busy state is a drive-indexed bitmap plus a dense
// vector of busy-interval counters, both owned by the array.  Reserving
// a slot is one L1-resident bitmap store with no division
// (ReserveSlot); closing an interval folds the bitmap into the
// counters in ascending drive order and clears it word-by-word.  Slot
// availability is mirrored in a bitmap so AvailableCount()/
// UnavailableCount() are O(1) — the scheduler's healthy-path test per
// tick.

#ifndef STAGGER_DISK_DISK_ARRAY_H_
#define STAGGER_DISK_DISK_ARRAY_H_

#include <memory>
#include <optional>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_parameters.h"
#include "disk/latent_errors.h"
#include "util/bitmap.h"
#include "util/hot_path.h"
#include "util/result.h"

namespace stagger {

/// \brief A homogeneous array of `D` simulated disks plus an optional
/// pool of hot-spare drives.
class DiskArray {
 public:
  /// \param num_disks  D; must be >= 1.
  /// \param params     drive model shared by all disks (and spares).
  /// \param num_spares hot spares beyond the D slots; >= 0.
  static Result<DiskArray> Create(int32_t num_disks, const DiskParameters& params,
                                  int32_t num_spares = 0);

  int32_t num_disks() const { return num_slots_; }
  const DiskParameters& params() const { return params_; }

  Disk& disk(DiskId id) { return drives_[DriveOf(Wrap(id))]; }
  const Disk& disk(DiskId id) const { return drives_[DriveOf(Wrap(id))]; }

  /// Maps any integer onto a valid disk id (modulo D).
  DiskId Wrap(int64_t id) const {
    return static_cast<DiskId>(PositiveMod(id, num_disks()));
  }

  // --- per-interval bandwidth (scheduler hot path) ----------------------
  //
  // Slot-addressed: `slot` must already be in [0, D) — the scheduler
  // computes physical disks with a conditional subtract, so no modulo
  // runs here.  Drive-addressed variants serve the spare pool (rebuild
  // writes), whose drive indices come from AcquireSpare.

  /// True when `slot`'s drive is transferring this interval.
  STAGGER_HOT_PATH bool SlotBusy(DiskId slot) const {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_);
    return busy_drives_.Test(slot_to_drive_[static_cast<size_t>(slot)]);
  }

  /// Marks `slot`'s drive busy for the current interval.
  /// Preconditions: currently idle, and IsAvailable(slot) — the
  /// scheduler must never place load on a failed or stalled disk.
  STAGGER_HOT_PATH void ReserveSlot(DiskId slot) {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_);
    ReserveDrive(slot_to_drive_[static_cast<size_t>(slot)]);
  }

  /// True when physical drive `drive` is transferring this interval.
  STAGGER_HOT_PATH bool DriveBusy(int32_t drive) const { return busy_drives_.Test(drive); }

  /// Marks physical drive `drive` busy for the current interval; same
  /// preconditions as ReserveSlot.  Busy-interval counters are folded
  /// in at EndInterval, so the hot path is a single bitmap store.
  STAGGER_HOT_PATH void ReserveDrive(int32_t drive) {
    STAGGER_DCHECK(!busy_drives_.Test(drive))
        << "drive " << drive << " reserved twice in one interval";
    STAGGER_DCHECK(drives_[static_cast<size_t>(drive)].available())
        << "drive " << drive << " reserved while failed or stalled";
    busy_drives_.Set(drive);
  }

  /// Intervals closed so far.
  int64_t intervals() const { return clock_->intervals; }

  /// True when all of disks start, start+1, ..., start+len-1 (mod D) are
  /// idle this interval.
  bool RunIsIdle(DiskId start, int32_t len) const;

  /// Reserves the adjacent run [start, start+len) (mod D).
  /// Precondition: RunIsIdle(start, len), every slot available.
  ///
  /// Until a spare promotion rewires a slot, slot i maps to drive i, so
  /// the run is a contiguous bit range in the busy bitmap and the whole
  /// reservation is a couple of masked word-ORs — the scheduler's
  /// lockstep fast path reserves a stream's M adjacent disks this way.
  STAGGER_HOT_PATH void ReserveRun(DiskId start, int32_t len) {
    STAGGER_DCHECK(start >= 0 && start < num_slots_);
    STAGGER_DCHECK(len >= 0 && len <= num_slots_);
    if (!dense_slots_) {
      ReserveRunRemapped(start, len);
      return;
    }
#ifndef NDEBUG
    for (int32_t i = 0; i < len; ++i) {
      const DiskId slot = Wrap(static_cast<int64_t>(start) + i);
      STAGGER_DCHECK(!busy_drives_.Test(slot))
          << "slot " << slot << " reserved twice in one interval";
      STAGGER_DCHECK(drives_[static_cast<size_t>(slot)].available())
          << "slot " << slot << " reserved while failed or stalled";
    }
#endif
    // The busy bitmap covers drives [0, D + S); slot runs wrap at D,
    // so split the wrap here instead of using Bitmap::SetWindow.
    const int32_t tail = num_slots_ - start;
    if (len <= tail) {
      busy_drives_.SetRange(start, start + len);
    } else {
      busy_drives_.SetRange(start, num_slots_);
      busy_drives_.SetRange(0, len - tail);
    }
  }

  /// Number of idle disks this interval.
  int32_t IdleCount() const;

  // --- health (fault injection, src/fault/) -----------------------------
  //
  // Health transitions must go through these slot-level methods (not
  // Disk::Fail etc. directly) so the availability bitmap stays in sync.
  bool IsAvailable(DiskId id) const { return disk(id).available(); }
  void FailDisk(DiskId id);
  void StallDisk(DiskId id);
  /// Degrades `id`'s drive to `percent`% of B_Disk (see Disk::Degrade):
  /// from the next interval on it serves reads only on its duty-cycle
  /// intervals, and the availability bitmap tracks the cycle.
  void DegradeDisk(DiskId id, int32_t percent);
  void RecoverDisk(DiskId id);
  /// Disks currently able to serve reads.  O(1).
  int32_t AvailableCount() const { return num_slots_ - unavailable_count_; }
  /// Disks currently failed, stalled, or on a degraded drive's
  /// non-serving interval.  O(1).
  int32_t UnavailableCount() const { return unavailable_count_; }
  /// Slot-space availability bitmap: bit set == slot unavailable.
  const Bitmap& unavailable_slots() const { return unavailable_slots_; }
  /// Slots currently available AND idle this interval — the measured
  /// idle bandwidth the background budget (src/background/) may grant.
  int32_t IdleAvailableCount() const;
  /// Total slot-intervals spent in the degraded state (serving or not),
  /// across all disks and the whole run.
  int64_t degraded_disk_intervals() const { return degraded_disk_intervals_; }

  /// Registry of latent sector errors on this array's media, shared by
  /// the fault injector (writes), the scrubber, the rebuild, and the
  /// scheduler's checksum path (reads).
  LatentErrorMap& latent_errors() { return *latent_errors_; }
  const LatentErrorMap& latent_errors() const { return *latent_errors_; }

  // --- hot spares (online rebuild, src/rebuild/) ------------------------
  /// Spare drives configured at creation.
  int32_t num_spares() const { return num_spares_; }
  /// Spare drives not currently claimed by a rebuild.
  int32_t FreeSpareCount() const {
    return static_cast<int32_t>(free_spares_.size());
  }
  /// Claims a spare drive for a rebuild; returns its drive index (only
  /// meaningful to ReturnSpare / PromoteSpare).  Fails with
  /// ResourceExhausted when the pool is empty.
  Result<int32_t> AcquireSpare();
  /// Returns an unused spare to the pool (rebuild cancelled because the
  /// original drive recovered naturally).
  void ReturnSpare(int32_t drive);
  /// Rewires `slot` onto the claimed spare `drive` and marks the slot
  /// healthy.  The failed drive's storage accounting transfers to the
  /// spare so later frees balance; the dead drive is retired.
  /// Preconditions: the slot's current drive is failed; `drive` was
  /// returned by AcquireSpare and not yet promoted or returned.
  void PromoteSpare(DiskId slot, int32_t drive);

  /// Ends the current interval: clears the busy bitmap (slots and
  /// spares alike — rebuild writes reserve through the same bitmap) and
  /// advances the shared interval counter.  O((D + S)/64) word stores.
  STAGGER_HOT_PATH void EndInterval();

  // --- aggregate storage ------------------------------------------------
  int64_t TotalCylinders() const;
  int64_t FreeCylinders() const;
  DataSize TotalCapacity() const {
    return params_.cylinder_capacity * TotalCylinders();
  }

  /// Fraction of elapsed intervals `slot`'s current drive spent
  /// transferring (after a promotion the slot reports its new drive).
  /// Reservations are folded into the counters at interval close, so
  /// the current open interval is not yet counted.
  double SlotUtilization(DiskId slot) const {
    const int64_t total = clock_->intervals;
    return total == 0
               ? 0.0
               : static_cast<double>(drive_busy_intervals_[DriveOf(slot)]) /
                     static_cast<double>(total);
  }

  /// Mean per-disk utilization over all elapsed intervals.
  double MeanUtilization() const;
  /// Max/min per-disk utilization — data-skew indicators (Section 3.2.2).
  double MaxUtilization() const;
  double MinUtilization() const;

  /// Largest and smallest per-disk used storage, for skew analysis.
  int64_t MaxUsedCylinders() const;
  int64_t MinUsedCylinders() const;

 private:
  DiskArray(std::vector<Disk> drives, DiskParameters params, int32_t num_slots,
            int32_t num_spares);

  size_t DriveOf(DiskId slot) const {
    return static_cast<size_t>(slot_to_drive_[static_cast<size_t>(slot)]);
  }

  /// Records an availability flip of `slot` in the bitmap; `was` is the
  /// slot's availability before the health transition.
  void NoteAvailabilityChange(DiskId slot, bool was);

  /// Removes `slot` from the degraded-slot walk list.
  void DropDegradedSlot(DiskId slot);

  /// ReserveRun fallback once slot_to_drive_ is no longer the identity:
  /// adjacent slots may sit on arbitrary drives, so reserve one by one.
  void ReserveRunRemapped(DiskId start, int32_t len);

  /// All physical drives: indices [0, D) start as the slots' drives,
  /// [D, D + S) as spares.  Promotion rewires slot_to_drive_.
  std::vector<Disk> drives_;
  DiskParameters params_;
  int32_t num_slots_;
  int32_t num_spares_;
  std::vector<int32_t> slot_to_drive_;
  /// Spare drive indices not yet claimed.
  std::vector<int32_t> free_spares_;
  /// Spare drive indices claimed by AcquireSpare, pending promotion.
  std::vector<int32_t> claimed_spares_;
  /// Shared interval clock; heap-allocated so the drives' back-pointers
  /// (used for lazy down-time accounting) survive moves of the array.
  std::unique_ptr<IntervalClock> clock_;
  /// Bit set == physical drive is transferring this interval.  Indexed
  /// by drive (construction index), so the bits stay valid across slot
  /// rewiring by PromoteSpare.
  Bitmap busy_drives_;
  /// Per-drive count of intervals spent transferring; drive-indexed
  /// like busy_drives_.  Dense so the reservation hot path and the
  /// utilization reports never touch the Disk objects.
  std::vector<int64_t> drive_busy_intervals_;
  /// Bit set == slot's drive is failed, stalled, or degraded-and-not-
  /// serving this interval.
  Bitmap unavailable_slots_;
  int32_t unavailable_count_ = 0;
  /// Slots whose drives are currently degraded, sorted ascending; the
  /// interval close advances only these drives' duty cycles, so arrays
  /// with no stragglers pay nothing.
  std::vector<DiskId> degraded_slots_;
  int64_t degraded_disk_intervals_ = 0;
  /// Heap-allocated like clock_ so reader-held pointers survive moves.
  std::unique_ptr<LatentErrorMap> latent_errors_;
  /// True while slot_to_drive_ is the identity (no spare promoted yet):
  /// ReserveRun may then treat a slot run as a drive-bitmap bit range.
  bool dense_slots_ = true;
};

}  // namespace stagger

#endif  // STAGGER_DISK_DISK_ARRAY_H_
