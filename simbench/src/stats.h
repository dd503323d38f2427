// Arithmetic behind the benchmark's reported figures: nearest-rank
// percentiles that state how many samples lie beyond them, medians of
// per-pass values, fastest piece times over passes, span self time, and
// the two ratios whose bases the metric dictionary (METRICS.md) defines.  Header-only so the tests in
// tests/stats_test.cc exercise exactly what the benchmark runs.

#ifndef SIMBENCH_STATS_H_
#define SIMBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace simbench {

/// A nearest-rank percentile and the sample count it rests on.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly after the chosen rank in sorted order; a tail
  /// percentile is only meaningful when this is at least ten.
  size_t beyond = 0;
};

/// Nearest-rank percentile q in (0, 1] of `v` (sorted in place): the
/// smallest sample with at least ceil(q * n) samples at or below it.
/// An empty sample set reads 0 with zero samples.
template <typename T>
Percentile NearestRank(std::vector<T>& v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  p.value = static_cast<double>(v[rank - 1]);
  p.beyond = v.size() - rank;
  return p;
}

/// Median as Python's statistics.median computes it (mean of the two
/// middle values for an even count); 0 for no values.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Folds one run's piece times into `fastest`, the fastest time seen
/// so far for each piece.  The first run sets it; a run with another
/// number of pieces leaves it alone and returns false.
inline bool KeepFastest(const std::vector<double>& pieces,
                        std::vector<double>* fastest) {
  if (fastest->empty()) {
    *fastest = pieces;
    return true;
  }
  if (pieces.size() != fastest->size()) return false;
  for (size_t i = 0; i < pieces.size(); ++i) {
    (*fastest)[i] = std::min((*fastest)[i], pieces[i]);
  }
  return true;
}

/// num / den, reading 0 when the base is empty.
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Admissions per queued-request-interval: `pending_ticks` sums the
/// scheduler's queue length at every interval boundary, and each
/// request counted there is tried once at the next tick (contiguous
/// policy with backfill).  A request that arrives mid-interval and is
/// admitted at its first tick is admitted without being counted, so
/// the ratio can exceed 1 when the queue is mostly empty.
inline double AdmitRatio(int64_t admitted, int64_t pending_ticks) {
  return Ratio(static_cast<double>(admitted),
               static_cast<double>(pending_ticks));
}

/// Background reads granted per read of idle capacity the budget
/// measured (BackgroundBudgetMetrics::idle_capacity, summed over
/// intervals); 0 when no capacity was measured.
inline double GrantRatio(int64_t reads_granted, int64_t idle_capacity) {
  return Ratio(static_cast<double>(reads_granted),
               static_cast<double>(idle_capacity));
}

/// Nested-span bookkeeping: a span's self time is its duration minus
/// the durations of its direct children (which already contain their
/// own children).  Open/Close must nest.
class SpanStack {
 public:
  struct Closed {
    int64_t duration_ns = 0;
    int64_t self_ns = 0;
  };

  void Open(int64_t start_ns) { open_.push_back({start_ns, 0}); }

  Closed Close(int64_t end_ns) {
    const Frame f = open_.back();
    open_.pop_back();
    Closed c;
    c.duration_ns = end_ns - f.start_ns;
    c.self_ns = c.duration_ns - f.child_ns;
    if (!open_.empty()) open_.back().child_ns += c.duration_ns;
    return c;
  }

  size_t depth() const { return open_.size(); }

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> open_;
};

}  // namespace simbench

#endif  // SIMBENCH_STATS_H_
