// Tests of the benchmark's own arithmetic (src/stats.h) and of the
// exact round trip of pinned outputs (src/cell.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cell.h"
#include "stats.h"

namespace simbench {
namespace {

TEST(NearestRank, StatesTheSamplesBeyondTheRank) {
  std::vector<uint32_t> v;
  for (uint32_t i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  const Percentile p99 = NearestRank(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = NearestRank(v, 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(NearestRank, SmallAndEmptySampleSets) {
  std::vector<uint32_t> one = {7};
  const Percentile p = NearestRank(one, 0.99);
  EXPECT_EQ(p.value, 7.0);
  EXPECT_EQ(p.samples, 1u);
  EXPECT_EQ(p.beyond, 0u);  // a p99 of one sample rests on nothing beyond it

  std::vector<uint32_t> hundred;
  for (uint32_t i = 1; i <= 100; ++i) hundred.push_back(i);
  const Percentile p99 = NearestRank(hundred, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);  // too few beyond for a trustworthy tail

  std::vector<uint32_t> none;
  const Percentile e = NearestRank(none, 0.5);
  EXPECT_EQ(e.value, 0.0);
  EXPECT_EQ(e.samples, 0u);
  EXPECT_EQ(e.beyond, 0u);
}

TEST(NearestRank, TiesAndExactRanks) {
  std::vector<uint32_t> v = {5, 5, 5, 1};
  const Percentile p = NearestRank(v, 0.25);  // rank 1
  EXPECT_EQ(p.value, 1.0);
  EXPECT_EQ(p.beyond, 3u);
  const Percentile top = NearestRank(v, 1.0);
  EXPECT_EQ(top.value, 5.0);
  EXPECT_EQ(top.beyond, 0u);
}

TEST(KeepFastest, TakesTheMinimumOfEachPiece) {
  std::vector<double> fastest;
  EXPECT_TRUE(KeepFastest({3.0, 1.0, 2.0}, &fastest));
  EXPECT_EQ(fastest, (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_TRUE(KeepFastest({2.0, 4.0, 2.0}, &fastest));
  EXPECT_EQ(fastest, (std::vector<double>{2.0, 1.0, 2.0}));
  // A run cut into another number of pieces is not comparable.
  EXPECT_FALSE(KeepFastest({0.5, 0.5}, &fastest));
  EXPECT_EQ(fastest, (std::vector<double>{2.0, 1.0, 2.0}));
}

TEST(Median, MatchesPythonStatisticsMedian) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SpanStack, SelfTimeSubtractsDirectChildrenOnly) {
  SpanStack s;
  s.Open(0);       // step
  s.Open(10);      //   callback
  s.Open(12);      //     RequestDisplay
  s.Open(13);      //       Enqueue
  const SpanStack::Closed enqueue = s.Close(15);
  const SpanStack::Closed request = s.Close(20);
  const SpanStack::Closed callback = s.Close(25);
  s.Open(30);      //   RequestDisplay (arrival)
  const SpanStack::Closed request2 = s.Close(34);
  const SpanStack::Closed step = s.Close(100);
  EXPECT_EQ(enqueue.duration_ns, 2);
  EXPECT_EQ(enqueue.self_ns, 2);
  EXPECT_EQ(request.duration_ns, 8);
  EXPECT_EQ(request.self_ns, 6);
  EXPECT_EQ(callback.duration_ns, 15);
  EXPECT_EQ(callback.self_ns, 7);
  EXPECT_EQ(request2.self_ns, 4);
  EXPECT_EQ(step.duration_ns, 100);
  EXPECT_EQ(step.self_ns, 100 - 15 - 4);
  // Self times partition the root's duration.
  EXPECT_EQ(enqueue.self_ns + request.self_ns + callback.self_ns +
                request2.self_ns + step.self_ns,
            step.duration_ns);
  EXPECT_EQ(s.depth(), 0u);
}

TEST(Ratios, AdmitRatioIsAdmittedPerPendingTick) {
  EXPECT_DOUBLE_EQ(AdmitRatio(25, 100), 0.25);
  EXPECT_EQ(AdmitRatio(0, 0), 0.0);
  // Mid-interval arrivals admitted at their first tick are never
  // counted pending, so a light queue can read above 1.
  EXPECT_DOUBLE_EQ(AdmitRatio(30, 10), 3.0);
}

TEST(Ratios, GrantRatioIsGrantedPerMeasuredIdleRead) {
  EXPECT_DOUBLE_EQ(GrantRatio(360, 1440), 0.25);
  EXPECT_EQ(GrantRatio(0, 0), 0.0);
  EXPECT_EQ(GrantRatio(0, 500), 0.0);
}

TEST(Outputs, FormatParsesBackBitExactly) {
  Outputs o;
  o.displays_per_hour = 397.30000000000001;
  o.displays_completed = 3973;
  o.admission_p50_sec = 0.1 + 0.2;
  o.admission_p99_sec = std::nextafter(121.0, 200.0);
  o.disk_utilization = 2.0 / 3.0;
  o.latent_unrepaired = 0;
  Outputs back;
  ASSERT_TRUE(Parse(Format(o), &back));
  EXPECT_TRUE(SameBits(o, back));
  back.disk_utilization = std::nextafter(back.disk_utilization, 1.0);
  EXPECT_FALSE(SameBits(o, back));
  EXPECT_FALSE(Parse("0x1p+0 1 2", &back));
  EXPECT_FALSE(Parse(Format(o) + " 9", &back));
}

TEST(Outputs, InvariantsFlagEveryForbiddenOutcome) {
  Outputs ok;
  ok.displays_completed = 1;
  EXPECT_EQ(InvariantFailure(ok), "");
  Outputs o = ok;
  o.hiccups = 1;
  EXPECT_NE(InvariantFailure(o), "");
  o = ok;
  o.budget_violations = 1;
  EXPECT_NE(InvariantFailure(o), "");
  o = ok;
  o.corrupt_frames_delivered = 1;
  EXPECT_NE(InvariantFailure(o), "");
  o = ok;
  o.latent_unrepaired = 1;  // a model outcome, pinned rather than forbidden
  EXPECT_EQ(InvariantFailure(o), "");
  o = ok;
  o.displays_completed = 0;
  EXPECT_NE(InvariantFailure(o), "");
}

}  // namespace
}  // namespace simbench
