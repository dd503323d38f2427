// One cell: builds the world RunExperiment builds for a config, through
// the library's public API, so that set-up can be timed apart from the
// run and the services can be wrapped; runs it; and extracts the model
// outputs the benchmark checks exactly.

#ifndef SIMBENCH_CELL_H_
#define SIMBENCH_CELL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/experiment.h"
#include "trace.h"
#include "util/result.h"
#include "workloads.h"

namespace simbench {

/// Model outputs checked exactly (simulated quantities, not host time).
struct Outputs {
  double displays_per_hour = 0.0;
  int64_t displays_completed = 0;
  int64_t hiccups = 0;
  double admission_p50_sec = 0.0;
  double admission_p99_sec = 0.0;
  double disk_utilization = 0.0;
  int64_t budget_violations = 0;
  int64_t corrupt_frames_delivered = 0;
  int64_t latent_unrepaired = 0;
};

Outputs FromResult(const stagger::ExperimentResult& r);
/// Bitwise equality, doubles included.
bool SameBits(const Outputs& a, const Outputs& b);
/// Space-separated fields, doubles as hex floats (exact round trip).
std::string Format(const Outputs& o);
/// Inverse of Format; false on malformed text.
bool Parse(const std::string& text, Outputs* o);
/// Empty when the invariants every run must meet hold (no hiccups, no
/// budget violation, no corrupt frame shipped, at least one display
/// completed); else the first failure.  Unrepaired latent cells are a
/// model outcome, checked only against pinned values.
std::string InvariantFailure(const Outputs& o);

/// Exact per-layer counts of one traced cell.
struct Counters {
  int64_t intervals = 0;
  int64_t stream_ticks = 0;   ///< sum of active_streams() per interval
  int64_t pending_ticks = 0;  ///< sum of pending_requests() per interval
  int64_t admitted = 0;
  int64_t fragmented_admissions = 0;
  int64_t coalesce_migrations = 0;
  int64_t peak_buffered_fragments = 0;
  int64_t events = 0;
  int64_t batches = 0;
  int64_t busy_drive_intervals = 0;
  int64_t evictions = 0;
  int64_t resident_end = 0;
  int64_t tertiary_completed = 0;
  int64_t replications = 0;
  int64_t requests_issued = 0;
  int64_t logical_requests = 0;  ///< requests the striped server accepted
  int64_t physical_streams = 0;  ///< streams it issued for them
  int64_t fault_events = 0;
  int64_t degraded_reads = 0;
  int64_t reconstructed_reads = 0;
  int64_t streams_paused = 0;
  int64_t fragments_rebuilt = 0;
  int64_t stripes_verified = 0;
  int64_t errors_repaired = 0;
  int64_t reads_granted = 0;
  int64_t idle_capacity = 0;
};

/// Host durations of interval steps (ns), split by whether the
/// background budget granted reads during the step.
struct StepSamples {
  std::vector<uint32_t> all;
  std::vector<uint32_t> granting;
  std::vector<uint32_t> idle;
};

struct CellRun {
  Outputs outputs;
  bool vdr = false;
  double sim_hours = 0.0;   ///< warm-up + measurement
  double wall_s = 0.0;      ///< set-up + run + teardown, host
  double setup_s = 0.0;     ///< world building, host
  double run_s = 0.0;       ///< simulation, host
  /// Untraced runs only: host seconds of each kSliceIntervals-long
  /// slice of the simulation, in order.
  std::vector<double> slice_s;
  // Traced runs only.
  Counters counters;
  int64_t step_self_ns = 0;
};

/// Scheduler intervals per timed slice of an untraced run.
inline constexpr int64_t kSliceIntervals = 200;

/// Runs `cell`.  With a tracer, the run is stepped one scheduler
/// interval at a time, the services are wrapped with timing
/// decorators, set-up phases are spanned, and counters and step
/// samples are collected; without one, the run is timed in slices of
/// kSliceIntervals intervals.
stagger::Result<CellRun> RunCell(const Cell& cell, Tracer* tracer,
                                 StepSamples* samples);

}  // namespace simbench

#endif  // SIMBENCH_CELL_H_
