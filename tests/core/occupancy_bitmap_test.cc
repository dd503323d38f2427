// Property tests for the O(active-work) occupancy machinery: the
// word-masked Bitmap window queries and the single-bit-per-delay
// virtual-disk searches must agree exactly with brute-force O(D)
// references, across many seeds and (D, M, k) shapes — including
// wrap-around windows and non-coprime strides (gcd(D, k) > 1).

#include "util/bitmap.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/virtual_disk.h"
#include "util/rng.h"

namespace stagger {
namespace {

// ---------------------------------------------------------------------
// Bitmap unit tests.

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);  // spans three words
  EXPECT_EQ(b.size(), 130);
  EXPECT_EQ(b.CountSet(), 0);
  for (int32_t i : {0, 63, 64, 127, 128, 129}) {
    EXPECT_FALSE(b.Test(i));
    b.Set(i);
    EXPECT_TRUE(b.Test(i));
  }
  EXPECT_EQ(b.CountSet(), 6);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.CountSet(), 5);
  b.ClearAll();
  EXPECT_EQ(b.CountSet(), 0);
  EXPECT_FALSE(b.Test(0));
}

TEST(BitmapTest, ResizeClears) {
  Bitmap b(64);
  b.Set(10);
  b.Resize(100);
  EXPECT_EQ(b.size(), 100);
  EXPECT_EQ(b.CountSet(), 0);
}

TEST(BitmapTest, ForEachSetVisitsAscending) {
  Bitmap b(200);
  const std::vector<int32_t> bits = {0, 1, 63, 64, 65, 126, 128, 199};
  // Insert in scrambled order; iteration must still ascend.
  for (int32_t i : {128, 0, 65, 199, 63, 1, 126, 64}) b.Set(i);
  std::vector<int32_t> seen;
  b.ForEachSet([&](int32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(BitmapTest, WindowClearBasics) {
  Bitmap b(100);
  EXPECT_TRUE(b.WindowClear(0, 100));  // empty map: everything clear
  EXPECT_TRUE(b.WindowClear(42, 0));   // zero-length window
  b.Set(70);
  EXPECT_FALSE(b.WindowClear(0, 100));
  EXPECT_TRUE(b.WindowClear(0, 70));
  EXPECT_FALSE(b.WindowClear(0, 71));
  EXPECT_TRUE(b.WindowClear(71, 29));
  // Wrap-around: [95, 5) crosses the boundary but misses bit 70...
  EXPECT_TRUE(b.WindowClear(95, 10));
  // ...while [60, 15) covers it.
  EXPECT_FALSE(b.WindowClear(60, 15));
  b.Clear(70);
  b.Set(2);
  EXPECT_FALSE(b.WindowClear(95, 10));  // wrap catches the low bit
}

TEST(BitmapTest, SetRangeAndSetWindow) {
  Bitmap b(100);
  b.SetRange(10, 10);  // empty range is a no-op
  EXPECT_EQ(b.CountSet(), 0);
  b.SetRange(60, 70);  // straddles the word boundary
  EXPECT_EQ(b.CountSet(), 10);
  EXPECT_FALSE(b.Test(59));
  EXPECT_TRUE(b.Test(60));
  EXPECT_TRUE(b.Test(69));
  EXPECT_FALSE(b.Test(70));
  b.ClearAll();
  b.SetWindow(95, 10);  // wraps: bits 95..99 and 0..4
  EXPECT_EQ(b.CountSet(), 10);
  EXPECT_TRUE(b.Test(99));
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(4));
  EXPECT_FALSE(b.Test(5));
  EXPECT_FALSE(b.Test(94));
}

TEST(BitmapPropertyTest, SetWindowMatchesNaive) {
  const int32_t sizes[] = {1, 7, 63, 64, 65, 100, 128, 200, 1000};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 1);
    for (int32_t size : sizes) {
      const int32_t start =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(size)));
      const int32_t len = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(size) + 1));
      Bitmap fast(size);
      fast.SetWindow(start, len);
      Bitmap naive(size);
      for (int32_t i = 0; i < len; ++i) naive.Set((start + i) % size);
      EXPECT_EQ(fast.CountSet(), naive.CountSet())
          << "seed=" << seed << " size=" << size << " start=" << start
          << " len=" << len;
      for (int32_t i = 0; i < size; ++i) {
        ASSERT_EQ(fast.Test(i), naive.Test(i))
            << "seed=" << seed << " size=" << size << " start=" << start
            << " len=" << len << " bit=" << i;
      }
    }
  }
}

// Reference for WindowClear: test bits one by one.
bool WindowClearNaive(const Bitmap& b, int32_t start, int32_t len) {
  for (int32_t i = 0; i < len; ++i) {
    if (b.Test((start + i) % b.size())) return false;
  }
  return true;
}

TEST(BitmapPropertyTest, WindowClearMatchesNaive) {
  const int32_t sizes[] = {1, 7, 63, 64, 65, 100, 128, 200, 1000};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 1);
    for (int32_t size : sizes) {
      Bitmap b(size);
      // Sparse to mid-density occupancy, like a partly loaded farm.
      const double density = rng.NextDouble() * 0.5;
      for (int32_t i = 0; i < size; ++i) {
        if (rng.NextBool(density)) b.Set(i);
      }
      for (int32_t probe = 0; probe < 20; ++probe) {
        const int32_t start =
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(size)));
        const int32_t len = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(size) + 1));
        EXPECT_EQ(b.WindowClear(start, len), WindowClearNaive(b, start, len))
            << "seed=" << seed << " size=" << size << " start=" << start
            << " len=" << len;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Virtual-disk search property tests.  The bitmap searches probe one
// bit per delay; the references below minimize/maximize over all D
// virtual disks with AlignmentDelay, the way the pre-optimization
// scheduler did.

struct Shape {
  int32_t d;  ///< disks
  int32_t k;  ///< stride
};

// Mixes coprime, divisor, and shared-factor strides (P = D/gcd varies).
constexpr Shape kShapes[] = {{10, 1},  {10, 4},   {12, 8},    {13, 5},
                             {64, 16}, {100, 7},  {100, 30},  {101, 101},
                             {128, 6}, {1000, 5}, {1000, 48}, {1000, 999}};

std::optional<std::pair<int32_t, int64_t>> EarliestFreeNaive(
    const VirtualDiskFrame& frame, const Bitmap& occupied, const Bitmap& taken,
    int64_t t, int32_t target, int64_t max_delay, bool skip_zero) {
  std::optional<std::pair<int32_t, int64_t>> best;
  for (int32_t v = 0; v < frame.num_disks(); ++v) {
    if (occupied.Test(v) || taken.Test(v)) continue;
    const auto delay = frame.AlignmentDelay(v, target, t);
    if (!delay.has_value()) continue;
    const int64_t d = *delay;
    // skip_zero excludes the currently-aligned virtual disk outright:
    // the search never revisits it one period later.
    if (skip_zero && d == 0) continue;
    if (d > max_delay) continue;
    if (!best.has_value() || d < best->second) best = {v, d};
  }
  return best;
}

std::optional<std::pair<int32_t, int64_t>> LatestFreeNaive(
    const VirtualDiskFrame& frame, const Bitmap& occupied, int64_t t,
    int32_t target, int64_t tau, int64_t max_resume) {
  std::optional<std::pair<int32_t, int64_t>> best;
  for (int32_t v = 0; v < frame.num_disks(); ++v) {
    if (occupied.Test(v)) continue;
    const auto delay = frame.AlignmentDelay(v, target, t);
    if (!delay.has_value()) continue;
    int64_t resume = tau + *delay;
    if (resume > max_resume) continue;
    // Later alignments of the same virtual disk, in whole periods.
    resume += ((max_resume - resume) / frame.period()) * frame.period();
    if (!best.has_value() || resume > best->second) best = {v, resume};
  }
  return best;
}

TEST(VirtualDiskSearchPropertyTest, EarliestFreeMatchesNaive) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 977 + 13);
    for (const Shape& shape : kShapes) {
      auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
      ASSERT_TRUE(frame.ok());
      Bitmap occupied(shape.d);
      Bitmap taken(shape.d);
      const double density = rng.NextDouble() * 0.9;
      for (int32_t v = 0; v < shape.d; ++v) {
        if (rng.NextBool(density)) occupied.Set(v);
        if (rng.NextBool(0.1)) taken.Set(v);
      }
      const int64_t t = rng.NextInRange(0, 10000);
      const int32_t target =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(shape.d)));
      const int64_t max_delay = rng.NextInRange(0, 2 * frame->period());
      const bool skip_zero = rng.NextBool(0.5);

      const auto got = frame->FindEarliestFreeVdisk(occupied, taken, t, target,
                                                    max_delay, skip_zero);
      const auto want = EarliestFreeNaive(*frame, occupied, taken, t, target,
                                          max_delay, skip_zero);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " D=" << shape.d << " k=" << shape.k;
      if (got.has_value()) {
        EXPECT_EQ(got->first, want->first);
        EXPECT_EQ(got->second, want->second);
      }
    }
  }
}

TEST(VirtualDiskSearchPropertyTest, LatestFreeMatchesNaive) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 131 + 7);
    for (const Shape& shape : kShapes) {
      auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
      ASSERT_TRUE(frame.ok());
      Bitmap occupied(shape.d);
      const double density = rng.NextDouble() * 0.9;
      for (int32_t v = 0; v < shape.d; ++v) {
        if (rng.NextBool(density)) occupied.Set(v);
      }
      const int64_t t = rng.NextInRange(0, 10000);
      const int32_t target =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(shape.d)));
      const int64_t tau = rng.NextInRange(0, 500);
      // Below, at, and beyond tau + P, to cover the overshoot-reject arm.
      const int64_t max_resume = tau + rng.NextInRange(-2, 3 * frame->period());

      const auto got =
          frame->FindLatestFreeVdisk(occupied, t, target, tau, max_resume);
      const auto want =
          LatestFreeNaive(*frame, occupied, t, target, tau, max_resume);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " D=" << shape.d << " k=" << shape.k
          << " tau=" << tau << " max_resume=" << max_resume;
      if (got.has_value()) {
        EXPECT_EQ(got->first, want->first);
        EXPECT_EQ(got->second, want->second);
      }
    }
  }
}

// Full-occupancy and empty-occupancy edges for both searches.
TEST(VirtualDiskSearchTest, DegenerateOccupancies) {
  auto frame = VirtualDiskFrame::Create(100, 7);
  ASSERT_TRUE(frame.ok());
  Bitmap none(100);
  Bitmap all(100);
  for (int32_t v = 0; v < 100; ++v) all.Set(v);

  EXPECT_FALSE(
      frame->FindEarliestFreeVdisk(all, none, 3, 42, 1000, false).has_value());
  EXPECT_FALSE(frame->FindLatestFreeVdisk(all, 3, 42, 0, 1000).has_value());

  // Empty map, delta 0 allowed: the aligned disk itself wins.
  const auto earliest =
      frame->FindEarliestFreeVdisk(none, none, 3, 42, 1000, false);
  ASSERT_TRUE(earliest.has_value());
  EXPECT_EQ(earliest->second, 0);
  EXPECT_EQ(frame->PhysicalOf(earliest->first, 3), 42);

  // Empty map: the latest resume is exactly max_resume.
  const auto latest = frame->FindLatestFreeVdisk(none, 3, 42, 5, 500);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->second, 500);
}

}  // namespace
}  // namespace stagger
