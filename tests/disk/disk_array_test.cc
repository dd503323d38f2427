#include "disk/disk_array.h"

#include <gtest/gtest.h>

#include "disk/disk.h"

namespace stagger {
namespace {

DiskArray MakeArray(int32_t n) {
  auto array = DiskArray::Create(n, DiskParameters::Evaluation());
  STAGGER_CHECK(array.ok());
  return *std::move(array);
}

TEST(DiskTest, StorageAllocation) {
  Disk d(0, DiskParameters::Evaluation());
  EXPECT_EQ(d.total_cylinders(), 3000);
  EXPECT_EQ(d.free_cylinders(), 3000);
  EXPECT_TRUE(d.AllocateStorage(1000).ok());
  EXPECT_EQ(d.free_cylinders(), 2000);
  EXPECT_EQ(d.used_cylinders(), 1000);
  d.FreeStorage(500);
  EXPECT_EQ(d.free_cylinders(), 2500);
}

TEST(DiskTest, AllocationFailsWhenFull) {
  Disk d(0, DiskParameters::Evaluation());
  EXPECT_TRUE(d.AllocateStorage(3000).ok());
  Status st = d.AllocateStorage(1);
  EXPECT_TRUE(st.IsResourceExhausted());
  // Failed allocation does not change accounting.
  EXPECT_EQ(d.free_cylinders(), 0);
}

TEST(DiskDeathTest, OverFreeingAborts) {
  Disk d(0, DiskParameters::Evaluation());
  EXPECT_DEATH(d.FreeStorage(1), "freed more storage");
}

TEST(DiskArrayTest, CreateValidates) {
  EXPECT_FALSE(DiskArray::Create(0, DiskParameters::Evaluation()).ok());
  DiskParameters bad = DiskParameters::Evaluation();
  bad.num_cylinders = -1;
  EXPECT_FALSE(DiskArray::Create(10, bad).ok());
}

TEST(DiskArrayTest, WrapIsModular) {
  DiskArray array = MakeArray(10);
  EXPECT_EQ(array.Wrap(3), 3);
  EXPECT_EQ(array.Wrap(13), 3);
  EXPECT_EQ(array.Wrap(-1), 9);
  EXPECT_EQ(array.Wrap(10), 0);
}

TEST(DiskArrayTest, RunIsIdleAndReserve) {
  DiskArray array = MakeArray(8);
  EXPECT_TRUE(array.RunIsIdle(6, 4));  // wraps over 6,7,0,1
  array.ReserveRun(6, 4);
  EXPECT_FALSE(array.RunIsIdle(0, 1));
  EXPECT_FALSE(array.RunIsIdle(5, 2));
  EXPECT_TRUE(array.RunIsIdle(2, 4));
  EXPECT_EQ(array.IdleCount(), 4);
  array.EndInterval();
  EXPECT_EQ(array.IdleCount(), 8);
}

TEST(DiskArrayTest, AggregateCapacity) {
  DiskArray array = MakeArray(4);
  EXPECT_EQ(array.TotalCylinders(), 12000);
  EXPECT_TRUE(array.disk(2).AllocateStorage(100).ok());
  EXPECT_EQ(array.FreeCylinders(), 11900);
  EXPECT_NEAR(array.TotalCapacity().gigabytes(), 4 * 4.536, 0.01);
}

TEST(DiskArrayTest, UtilizationSkewReporting) {
  DiskArray array = MakeArray(4);
  for (int t = 0; t < 10; ++t) {
    array.ReserveSlot(0);
    if (t < 5) array.ReserveSlot(1);
    array.EndInterval();
  }
  EXPECT_DOUBLE_EQ(array.MaxUtilization(), 1.0);
  EXPECT_DOUBLE_EQ(array.MinUtilization(), 0.0);
  EXPECT_DOUBLE_EQ(array.MeanUtilization(), (1.0 + 0.5) / 4.0);
}

TEST(DiskArrayTest, StorageSkewReporting) {
  DiskArray array = MakeArray(3);
  EXPECT_TRUE(array.disk(0).AllocateStorage(300).ok());
  EXPECT_TRUE(array.disk(1).AllocateStorage(100).ok());
  EXPECT_EQ(array.MaxUsedCylinders(), 300);
  EXPECT_EQ(array.MinUsedCylinders(), 0);
}

// ---------------------------------------------------------------------
// Hot-spare pool (online rebuild).
// ---------------------------------------------------------------------

DiskArray MakeArrayWithSpares(int32_t n, int32_t spares) {
  auto array = DiskArray::Create(n, DiskParameters::Evaluation(), spares);
  STAGGER_CHECK(array.ok());
  return *std::move(array);
}

TEST(DiskArraySpareTest, SparesAreInvisibleToSlotQueries) {
  DiskArray array = MakeArrayWithSpares(4, 2);
  EXPECT_EQ(array.num_disks(), 4);
  EXPECT_EQ(array.num_spares(), 2);
  EXPECT_EQ(array.FreeSpareCount(), 2);
  // Slot-space accounting ignores spares entirely.
  EXPECT_EQ(array.IdleCount(), 4);
  EXPECT_EQ(array.AvailableCount(), 4);
  EXPECT_EQ(array.TotalCylinders(), MakeArray(4).TotalCylinders());
}

TEST(DiskArraySpareTest, AcquireReturnCycle) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  EXPECT_EQ(array.FreeSpareCount(), 0);
  EXPECT_TRUE(array.AcquireSpare().status().IsResourceExhausted());
  array.ReturnSpare(*drive);
  EXPECT_EQ(array.FreeSpareCount(), 1);
}

TEST(DiskArraySpareTest, PromotionRewiresSlotAndTransfersStorage) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  EXPECT_TRUE(array.disk(2).AllocateStorage(700).ok());
  array.FailDisk(2);
  EXPECT_FALSE(array.IsAvailable(2));

  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(2, *drive);

  // The slot is healthy again, addressed identically, and carries the
  // failed drive's storage accounting — bit-identical in slot space.
  EXPECT_TRUE(array.IsAvailable(2));
  EXPECT_EQ(array.disk(2).used_cylinders(), 700);
  EXPECT_EQ(array.FreeCylinders(), array.TotalCylinders() - 700);
  EXPECT_EQ(array.FreeSpareCount(), 0);  // the dead drive is retired
}

TEST(DiskArraySpareTest, PromotedSlotServesReads) {
  DiskArray array = MakeArrayWithSpares(3, 1);
  array.FailDisk(1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(1, *drive);
  EXPECT_TRUE(array.RunIsIdle(0, 3));
  array.ReserveRun(0, 3);
  EXPECT_EQ(array.IdleCount(), 0);
  array.EndInterval();
  EXPECT_EQ(array.IdleCount(), 3);
}

TEST(DiskArraySpareDeathTest, PromoteRequiresFailedSlot) {
  DiskArray array = MakeArrayWithSpares(2, 1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  EXPECT_DEATH(array.PromoteSpare(0, *drive), "");
}

// ---------------------------------------------------------------------
// Degraded drives (stragglers): Bresenham duty cycle over intervals.
// ---------------------------------------------------------------------

TEST(DiskArrayDegradeTest, DutyCycleMatchesPercent) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(1, 50);
  EXPECT_EQ(array.disk(1).health(), DiskHealth::kDegraded);
  EXPECT_FALSE(array.IsAvailable(1));  // the credit counter starts empty
  int32_t serving = 0;
  for (int i = 0; i < 10; ++i) {
    array.EndInterval();
    if (array.IsAvailable(1)) ++serving;
  }
  EXPECT_EQ(serving, 5);  // exactly percent% of intervals, no drift
}

TEST(DiskArrayDegradeTest, LowPercentServesSparsely) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(0, 25);
  int32_t serving = 0;
  for (int i = 0; i < 100; ++i) {
    array.EndInterval();
    if (array.IsAvailable(0)) ++serving;
  }
  EXPECT_EQ(serving, 25);
}

TEST(DiskArrayDegradeTest, DegradedIntervalAccountingStopsAtRecover) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(2, 40);
  for (int i = 0; i < 8; ++i) array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), 8);
  array.RecoverDisk(2);
  EXPECT_TRUE(array.IsAvailable(2));
  EXPECT_EQ(array.disk(2).health(), DiskHealth::kHealthy);
  for (int i = 0; i < 3; ++i) array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), 8);
}

TEST(DiskArrayDegradeTest, NonServingStragglerIsNotIdleAvailable) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(3, 50);
  array.EndInterval();  // credit 50: not serving this interval
  EXPECT_EQ(array.IdleAvailableCount(), 3);
  array.EndInterval();  // credit 100: serving
  EXPECT_EQ(array.IdleAvailableCount(), 4);
}

TEST(DiskArrayDegradeTest, FailEscalatesAndClearsTheDutyCycle) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(1, 50);
  array.FailDisk(1);
  EXPECT_EQ(array.disk(1).health(), DiskHealth::kFailed);
  EXPECT_FALSE(array.IsAvailable(1));
  // The slot left the degraded walk list: intervals no longer accrue.
  const int64_t before = array.degraded_disk_intervals();
  array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), before);
  array.RecoverDisk(1);
  EXPECT_TRUE(array.IsAvailable(1));
  EXPECT_EQ(array.disk(1).degraded_percent(), 0);
}

// ---------------------------------------------------------------------
// Latent sector errors: the array-owned media-cell registry.
// ---------------------------------------------------------------------

TEST(DiskArrayLatentTest, InjectDetectRepairLifecycle) {
  DiskArray array = MakeArray(4);
  LatentErrorMap& latent = array.latent_errors();
  EXPECT_FALSE(latent.active());
  EXPECT_EQ(latent.Inject(2, 10, 12), 3);
  EXPECT_TRUE(latent.active());
  EXPECT_EQ(latent.ActiveCells(), 3);
  EXPECT_TRUE(latent.IsCorrupt(2, 11));
  EXPECT_FALSE(latent.IsCorrupt(2, 13));
  EXPECT_FALSE(latent.IsCorrupt(1, 11));
  // Media-level: the disk keeps serving.
  EXPECT_TRUE(array.IsAvailable(2));

  EXPECT_TRUE(latent.MarkDetected(2, 11));
  EXPECT_FALSE(latent.MarkDetected(2, 11));  // only the first counts
  latent.Repair(2, 11);
  EXPECT_FALSE(latent.IsCorrupt(2, 11));
  EXPECT_EQ(latent.ActiveCells(), 2);
  EXPECT_EQ(latent.metrics().injected, 3);
  EXPECT_EQ(latent.metrics().detected, 1);
  EXPECT_EQ(latent.metrics().repaired, 1);
}

TEST(DiskArrayLatentTest, ReinjectionKeepsTheOriginalCell) {
  DiskArray array = MakeArray(2);
  LatentErrorMap& latent = array.latent_errors();
  EXPECT_EQ(latent.Inject(0, 5, 7), 3);
  EXPECT_EQ(latent.Inject(0, 6, 8), 1);  // rows 6 and 7 already corrupt
  EXPECT_EQ(latent.ActiveCells(), 4);
  EXPECT_EQ(latent.metrics().injected, 4);
}

TEST(DiskArrayLatentTest, TimeToRepairIsStampedInIntervals) {
  DiskArray array = MakeArray(2);
  LatentErrorMap& latent = array.latent_errors();
  latent.Inject(1, 3, 3);
  for (int i = 0; i < 7; ++i) array.EndInterval();
  latent.MarkDetected(1, 3);
  latent.Repair(1, 3);
  ASSERT_EQ(latent.metrics().time_to_repair_intervals.count(), 1);
  EXPECT_DOUBLE_EQ(latent.metrics().time_to_repair_intervals.mean(), 7.0);
}

TEST(DiskArrayLatentTest, CellsSurviveFailAndRecover) {
  DiskArray array = MakeArray(4);
  array.latent_errors().Inject(1, 0, 0);
  array.FailDisk(1);
  array.RecoverDisk(1);
  // The platters come back as they were: still corrupt.
  EXPECT_TRUE(array.latent_errors().IsCorrupt(1, 0));
}

TEST(DiskArrayLatentTest, SparePromotionDropsTheSlotsCells) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  array.latent_errors().Inject(2, 4, 6);
  array.latent_errors().Inject(3, 9, 9);
  array.FailDisk(2);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(2, *drive);
  // The promoted slot got a fresh medium; other disks' cells stand.
  EXPECT_FALSE(array.latent_errors().IsCorrupt(2, 5));
  EXPECT_TRUE(array.latent_errors().IsCorrupt(3, 9));
  EXPECT_EQ(array.latent_errors().metrics().repaired_by_rebuild, 3);
  EXPECT_EQ(array.latent_errors().ActiveCells(), 1);
}

}  // namespace
}  // namespace stagger
