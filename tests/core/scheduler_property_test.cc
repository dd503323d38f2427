// Property tests over the interval scheduler: for a sweep of array
// sizes, strides, degrees, and admission policies, a randomized (but
// seeded) request load must always satisfy the scheme's invariants —
// hiccup-free delivery, conservation of virtual disks and buffers, and
// completion of every request.  The per-read physical-alignment
// invariant is enforced by a STAGGER_CHECK inside the scheduler, so
// simply driving the load exercises it.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace stagger {
namespace {

struct PropertyCase {
  int32_t num_disks;
  int32_t stride;
  int32_t max_degree;
  AdmissionPolicy policy;
  bool coalesce;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::ostringstream os;
  os << "D" << c.num_disks << "_k" << c.stride << "_M" << c.max_degree << "_"
     << (c.policy == AdmissionPolicy::kContiguous ? "contig" : "frag")
     << (c.coalesce ? "_coal" : "") << "_s" << c.seed;
  return os.str();
}

class SchedulerPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SchedulerPropertyTest, RandomLoadKeepsInvariants) {
  const PropertyCase& c = GetParam();
  Simulator sim;
  auto disks = DiskArray::Create(c.num_disks, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  SchedulerConfig config;
  config.stride = c.stride;
  config.interval = SimTime::Millis(605);
  config.policy = c.policy;
  config.coalesce = c.coalesce;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config);
  ASSERT_TRUE(sched.ok()) << sched.status();

  Rng rng(c.seed);
  int completed = 0;
  constexpr int kRequests = 40;
  // Submit randomized requests at randomized times.
  SimTime at = SimTime::Zero();
  for (int i = 0; i < kRequests; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = static_cast<int32_t>(
        1 + rng.NextBounded(static_cast<uint64_t>(c.max_degree)));
    req.start_disk = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(c.num_disks)));
    req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(40));
    req.on_completed = [&completed] { ++completed; };
    at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(3000000)));
    sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
      auto id = (*sched)->Submit(std::move(req));
      STAGGER_CHECK(id.ok()) << id.status();
    });
  }

  sim.RunUntil(SimTime::Hours(2));

  const SchedulerMetrics& m = (*sched)->metrics();
  EXPECT_EQ(completed, kRequests) << "not all displays finished";
  EXPECT_EQ(m.displays_completed, kRequests);
  EXPECT_EQ(m.hiccups, 0) << "continuous display violated";
  EXPECT_EQ((*sched)->active_streams(), 0u);
  EXPECT_EQ((*sched)->pending_requests(), 0u);
  EXPECT_EQ((*sched)->idle_virtual_disks(), c.num_disks)
      << "virtual disks leaked";
  // All buffers returned.
  int64_t buffered = 0;
  (void)buffered;
  EXPECT_EQ(m.buffered_fragments.current(), 0.0);
  // Startup latency was recorded for every display.
  EXPECT_EQ(m.startup_latency_sec.count(), kRequests);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerPropertyTest,
    ::testing::Values(
        // Coprime and non-coprime (D, k), contiguous policy.
        PropertyCase{8, 1, 3, AdmissionPolicy::kContiguous, false, 1},
        PropertyCase{8, 3, 4, AdmissionPolicy::kContiguous, false, 2},
        PropertyCase{9, 3, 3, AdmissionPolicy::kContiguous, false, 3},
        PropertyCase{12, 4, 4, AdmissionPolicy::kContiguous, false, 4},
        PropertyCase{15, 5, 5, AdmissionPolicy::kContiguous, false, 5},
        PropertyCase{16, 7, 5, AdmissionPolicy::kContiguous, false, 6},
        PropertyCase{20, 1, 6, AdmissionPolicy::kContiguous, false, 7},
        // Fragmented admission (Algorithm 1).
        PropertyCase{8, 1, 3, AdmissionPolicy::kFragmented, false, 8},
        PropertyCase{12, 5, 4, AdmissionPolicy::kFragmented, false, 9},
        PropertyCase{16, 3, 5, AdmissionPolicy::kFragmented, false, 10},
        PropertyCase{20, 4, 6, AdmissionPolicy::kFragmented, false, 11},
        // Fragmented + coalescing (Algorithm 2).
        PropertyCase{8, 1, 3, AdmissionPolicy::kFragmented, true, 12},
        PropertyCase{12, 5, 4, AdmissionPolicy::kFragmented, true, 13},
        PropertyCase{16, 3, 5, AdmissionPolicy::kFragmented, true, 14},
        PropertyCase{20, 4, 6, AdmissionPolicy::kFragmented, true, 15},
        PropertyCase{24, 11, 6, AdmissionPolicy::kFragmented, true, 16}),
    CaseName);

// Determinism: identical seeds produce bit-identical schedules.
TEST(SchedulerDeterminismTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    auto disks = DiskArray::Create(12, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 1;
    config.interval = SimTime::Millis(605);
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    Rng rng(seed);
    std::vector<double> latencies;
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 25; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(4));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(12));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(30));
      req.on_started = [&latencies](SimTime l) {
        latencies.push_back(l.seconds());
      };
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(2000000)));
      sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
        (void)(*sched)->Submit(std::move(req));
      });
    }
    sim.RunUntil(SimTime::Hours(1));
    latencies.push_back(static_cast<double>((*sched)->metrics().coalesce_migrations));
    latencies.push_back(static_cast<double>((*sched)->metrics().displays_completed));
    return latencies;
  };
  EXPECT_EQ(run(424242), run(424242));
  EXPECT_NE(run(424242), run(424243));
}

// The lockstep fast path (contiguous streams advanced with one
// range-reserve) is skipped whenever a latent error is active, so
// running the same load with and without one corrupt cell on a row no
// stream reads pits the fast path against the per-lane reference path.
// Every externally visible outcome, including every observed read,
// must match exactly.
TEST(SchedulerFastPathTest, MatchesPerLanePathExactly) {
  auto run = [](bool force_per_lane_path, uint64_t seed) {
    Simulator sim;
    auto disks = DiskArray::Create(16, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 3;
    config.interval = SimTime::Millis(605);
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    // (interval, object, subobject, fragment, disk) of every read.
    std::vector<double> fingerprint;
    config.read_observer = [&fingerprint](int64_t interval, ObjectId object,
                                          int64_t subobject, int32_t fragment,
                                          int32_t disk) {
      fingerprint.insert(fingerprint.end(),
                         {static_cast<double>(interval),
                          static_cast<double>(object),
                          static_cast<double>(subobject),
                          static_cast<double>(fragment),
                          static_cast<double>(disk)});
    };
    if (force_per_lane_path) {
      disks->latent_errors().Inject(0, int64_t{1} << 40, int64_t{1} << 40);
    }
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    Rng rng(seed);
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 30; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(5));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(16));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(30));
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(2000000)));
      sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
        (void)(*sched)->Submit(std::move(req));
      });
    }
    sim.RunUntil(SimTime::Hours(1));
    const SchedulerMetrics& m = (*sched)->metrics();
    fingerprint.insert(fingerprint.end(), {
        static_cast<double>(m.displays_completed),
        static_cast<double>(m.fragmented_admissions),
        static_cast<double>(m.coalesce_migrations),
        static_cast<double>(m.hiccups),
        m.buffered_fragments.current(),
        m.startup_latency_sec.mean(),
        disks->MeanUtilization(),
        disks->MaxUtilization(),
        disks->MinUtilization(),
    });
    return fingerprint;
  };
  for (uint64_t seed : {1ull, 7ull, 99ull, 31415ull}) {
    EXPECT_EQ(run(false, seed), run(true, seed)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace stagger
