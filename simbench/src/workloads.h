// The benchmark's workloads: each expands a seed into the list of cells
// (one RunExperiment-equivalent simulation each) it runs serially.  The
// library sees only the generated ExperimentConfigs and fault plans.
// Why each workload exists is recorded in METRICS.md.

#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/experiment.h"

namespace simbench {

struct Cell {
  std::string id;  ///< stable name, used to key pinned outputs
  stagger::ExperimentConfig config;
};

const std::vector<std::string>& WorkloadNames();

/// The cells of `workload` for `seed`; empty for an unknown name.
std::vector<Cell> MakeCells(const std::string& workload, uint64_t seed);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
