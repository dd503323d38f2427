// A single simulated disk drive: storage accounting in cylinders plus
// health state for fault injection.

#ifndef STAGGER_DISK_DISK_H_
#define STAGGER_DISK_DISK_H_

#include <cstdint>

#include "disk/disk_parameters.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

/// Index of a physical disk in the array, 0-based.
using DiskId = int32_t;

/// \brief Health of one drive (fault-injection subsystem, src/fault/).
///
/// A failed disk has lost its media: reads are rejected until an
/// operator-level Recover() (replacement + rebuild).  A stalled disk
/// keeps its data but blows its T_switch budget — any read issued
/// during the stall misses its interval deadline, so the scheduler must
/// treat it exactly like a failure for the stall's duration.  A
/// degraded disk (straggler) still has its data but sustains only a
/// fraction of B_Disk: it can complete a fragment read in some
/// intervals and not others, which the drive models as a deterministic
/// duty cycle over intervals (see Degrade()).
enum class DiskHealth {
  kHealthy,
  kFailed,
  kStalled,
  kDegraded,
};

/// \brief Interval clock shared by every drive of one DiskArray.
///
/// The array advances this single counter at interval close; drives
/// read it lazily for down-time accounting, so health transitions and
/// interval close never walk the drive list.  The struct lives on the
/// heap (owned by the array through a unique_ptr) so drive-held
/// pointers survive moves of the DiskArray itself.
struct IntervalClock {
  /// Intervals closed so far.
  int64_t intervals = 0;
};

/// \brief One simulated drive.
///
/// Storage is allocated in whole cylinders (the fragment granularity of
/// the paper).  Per-interval busy state is not kept here: it lives in
/// the owning DiskArray's dense bitmap and counters
/// (DiskArray::ReserveSlot et al.), so the scheduler's reservation hot
/// path touches two cache-resident arrays instead of D scattered
/// objects.
class Disk {
 public:
  Disk(DiskId id, const DiskParameters& params)
      : id_(id), free_cylinders_(params.num_cylinders),
        total_cylinders_(params.num_cylinders) {}

  DiskId id() const { return id_; }

  /// Binds the drive to its array's shared interval clock, which then
  /// supplies the interval count for down-time accounting.  An
  /// unattached drive's clock stays at interval 0.
  void AttachClock(IntervalClock* clock) { clock_ = clock; }

  // --- storage ---------------------------------------------------------
  int64_t total_cylinders() const { return total_cylinders_; }
  int64_t free_cylinders() const { return free_cylinders_; }
  int64_t used_cylinders() const { return total_cylinders_ - free_cylinders_; }

  /// Reserves `cylinders` of storage; fails with ResourceExhausted when
  /// the drive is full.
  Status AllocateStorage(int64_t cylinders);
  /// Returns previously allocated storage.
  void FreeStorage(int64_t cylinders);

  // --- health (fault injection) ----------------------------------------
  DiskHealth health() const { return health_; }
  /// True when the drive can serve reads this interval.  A degraded
  /// drive is available only on its serving intervals (see Degrade()).
  bool available() const {
    return health_ == DiskHealth::kHealthy ||
           (health_ == DiskHealth::kDegraded && degraded_serving_);
  }
  /// Media loss: the drive rejects reads until Recover().  Idempotent;
  /// failing a stalled or degraded disk escalates to a failure.
  void Fail();
  /// Transient stall (thermal recalibration, firmware hiccup): reads
  /// miss their deadline until Recover().  A no-op on a failed disk —
  /// a stall cannot downgrade a failure.
  void Stall();
  /// Bandwidth degradation (straggler): the drive sustains only
  /// `percent`% of B_Disk until Recover().  A fragment read occupies a
  /// whole interval, so fractional bandwidth is modeled as a duty
  /// cycle: the drive accumulates `percent` units of credit per
  /// interval and serves exactly those intervals where the credit
  /// reaches 100 — over any long window the fraction of serving
  /// intervals converges to percent/100 with no drift and no
  /// randomness.  The first interval of a degrade window never serves
  /// (the slowdown is felt immediately).  Legal only while healthy;
  /// `percent` must be in [1, 99].
  void Degrade(int32_t percent);
  /// Advances the duty cycle of a degraded drive by one interval;
  /// called by DiskArray::EndInterval after the shared clock ticks.
  /// Precondition: health() == kDegraded.
  void AdvanceDegradedInterval();
  /// True when a degraded drive serves reads this interval.
  bool degraded_serving() const { return degraded_serving_; }
  /// The configured bandwidth percentage of a degraded drive; 0 when
  /// the drive is not degraded.
  int32_t degraded_percent() const { return degraded_percent_; }
  /// Restores the drive to healthy from any degraded state.
  void Recover();
  /// Intervals elapsed while the disk was failed or stalled.
  int64_t down_intervals() const {
    return down_accumulated_ +
           (available() ? 0 : now_intervals() - down_since_);
  }

 private:
  int64_t now_intervals() const {
    return clock_ ? clock_->intervals : 0;
  }

  DiskId id_;
  int64_t free_cylinders_;
  int64_t total_cylinders_;
  DiskHealth health_ = DiskHealth::kHealthy;
  IntervalClock* clock_ = nullptr;
  /// Down-time bookkeeping is lazy: transitions record the clock, the
  /// getter adds the open span — interval close stays O(reserved).
  int64_t down_accumulated_ = 0;
  int64_t down_since_ = 0;
  /// Degrade duty cycle (health_ == kDegraded only): serving intervals
  /// are paced by an integer error accumulator, Bresenham-style.
  int32_t degraded_percent_ = 0;
  int32_t degraded_credit_ = 0;
  bool degraded_serving_ = false;
};

}  // namespace stagger

#endif  // STAGGER_DISK_DISK_H_
