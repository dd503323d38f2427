#include "workloads.h"

#include <cstdio>

#include "fault/fault_plan.h"
#include "util/rng.h"

namespace simbench {
namespace {

using stagger::ExperimentConfig;
using stagger::Scheme;
using stagger::SimTime;

// Distinct, seed-determined workload seeds per cell.
uint64_t CellSeed(uint64_t seed, uint64_t cell) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + cell + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// E1 / Figure 8: Table 3 at D = 1000, closed loop with zero think time,
// every popularity mean and station count, both schemes.
std::vector<Cell> Fig8Matrix(uint64_t seed) {
  std::vector<Cell> cells;
  for (double mean : {10.0, 20.0, 43.5}) {
    for (int stations : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
      for (Scheme scheme : {Scheme::kSimpleStriping, Scheme::kVdr}) {
        Cell c;
        c.config.scheme = scheme;
        c.config.geometric_mean = mean;
        c.config.stations = stations;
        c.config.seed = CellSeed(seed, cells.size());
        char id[64];
        std::snprintf(id, sizeof id, "m%g-s%d-%s", mean, stations,
                      scheme == Scheme::kVdr ? "vdr" : "striping");
        c.id = id;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

// E14 shape: open Poisson arrivals at 600/h against the ~397/h
// physical ceiling, 80% of them on one hot object for the whole run;
// unbatched, then with a 120 s batching window.
std::vector<Cell> FlashBatch(uint64_t seed) {
  stagger::Rng rng(CellSeed(seed, 1000));
  stagger::FlashCrowd crowd;
  crowd.start = SimTime::Zero();
  crowd.duration = SimTime::Hours(48);
  // A preloaded object, so the crowd never waits on the tertiary.
  crowd.object = static_cast<stagger::ObjectId>(rng.NextBounded(20));
  crowd.hot_fraction = 0.8;
  crowd.rate_multiplier = 1.0;
  std::vector<Cell> cells;
  for (int window : {0, 120}) {
    Cell c;
    c.config.open_arrivals = true;
    c.config.mean_interarrival = SimTime::Seconds(6);
    c.config.flash_crowds.push_back(crowd);
    c.config.warmup = SimTime::Hours(2);
    c.config.measure = SimTime::Hours(8);
    c.config.seed = CellSeed(seed, cells.size());
    if (window > 0) {
      c.config.batch = true;
      c.config.batch_window = SimTime::Seconds(window);
    }
    c.id = window > 0 ? "batched-120s" : "unbatched";
    cells.push_back(std::move(c));
  }
  return cells;
}

// Table 3 at 128 stations (idle bandwidth left over) with parity, hot
// spares, the reconstruct policy and the scrubber, under a seeded plan
// of whole-disk failures and latent sector errors.  Faults stop at the
// middle of the measurement window so the tail is repair runway.
std::vector<Cell> FaultScrub(uint64_t seed) {
  Cell c;
  c.id = "s128-chaos";
  ExperimentConfig& cfg = c.config;
  cfg.stations = 128;
  cfg.geometric_mean = 10.0;
  cfg.parity = true;
  cfg.num_spares = 4;
  // Parity stripes take M + 1 fragments, so fewer objects fit; a preload
  // beyond capacity would evict at once and thrash the tertiary.
  cfg.preload_objects = 100;
  cfg.degraded_policy = stagger::DegradedPolicy::kReconstruct;
  cfg.scrub = true;
  cfg.seed = CellSeed(seed, 0);
  stagger::ChaosParams params;
  params.horizon = cfg.warmup + SimTime::Micros(cfg.measure.micros() / 2);
  params.mtbf = SimTime::Hours(2400);
  params.mttr = SimTime::Hours(2);
  params.latent_mtbf = SimTime::Hours(350);
  params.subobject_space = cfg.subobjects_per_object;
  params.max_latent_run = 2;
  stagger::Rng rng(CellSeed(seed, 2000));
  cfg.fault_plan = stagger::FaultPlan::Generate(&rng, cfg.num_disks, params);
  return {c};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig8-matrix", "flash-batch",
                                                 "fault-scrub"};
  return names;
}

std::vector<Cell> MakeCells(const std::string& workload, uint64_t seed) {
  if (workload == "fig8-matrix") return Fig8Matrix(seed);
  if (workload == "flash-batch") return FlashBatch(seed);
  if (workload == "fault-scrub") return FaultScrub(seed);
  return {};
}

}  // namespace simbench
