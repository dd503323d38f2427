#include "cell.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "baseline/vdr_server.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_pool.h"
#include "util/distributions.h"
#include "workload/display_station.h"
#include "workload/open_arrivals.h"

namespace simbench {

using namespace stagger;  // NOLINT: the benchmark drives the whole library

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// A span when tracing, nothing otherwise.
class Phase {
 public:
  Phase(Tracer* tracer, SpanKind kind) {
    if (tracer != nullptr) span_.emplace(tracer, kind);
  }

 private:
  std::optional<ScopedSpan> span_;
};

uint32_t ClampNs(int64_t ns) {
  if (ns < 0) return 0;
  return ns > std::numeric_limits<uint32_t>::max()
             ? std::numeric_limits<uint32_t>::max()
             : static_cast<uint32_t>(ns);
}

StripedConfig MakeStripedConfig(const ExperimentConfig& config) {
  StripedConfig sc;
  sc.stride = config.scheme == Scheme::kSimpleStriping ? config.Degree()
                                                       : config.stride;
  sc.interval = config.Interval();
  sc.fragment_size = config.FragmentSize();
  sc.fragment_cylinders = config.fragment_cylinders;
  sc.policy = config.policy;
  sc.coalesce = config.coalesce;
  sc.preload_objects = config.preload_objects;
  sc.charge_materialization_writes = config.charge_materialization_writes;
  sc.tertiary_bandwidth = config.tertiary.bandwidth;
  sc.degraded_policy = config.degraded_policy;
  sc.parity = config.parity;
  sc.rebuild_intervals_per_fragment = config.rebuild_intervals_per_fragment;
  sc.scrub = config.scrub;
  sc.scrub_intervals_per_stripe = config.scrub_intervals_per_stripe;
  sc.rebuild_reads_per_interval = config.rebuild_reads_per_interval;
  sc.scrub_reads_per_interval = config.scrub_reads_per_interval;
  sc.scrub_starvation_floor_intervals = config.scrub_starvation_floor_intervals;
  sc.batch = config.batch;
  sc.batch_window = config.batch_window;
  sc.max_batch_fanout = config.max_batch_fanout;
  return sc;
}

VdrConfig MakeVdrConfig(const ExperimentConfig& config) {
  VdrConfig vc;
  vc.num_clusters = config.num_disks / config.Degree();
  vc.cluster_degree = config.Degree();
  vc.interval = config.Interval();
  vc.fragment_size = config.FragmentSize();
  const int64_t object_cylinders_per_disk =
      config.subobjects_per_object * config.fragment_cylinders;
  vc.objects_per_cluster = static_cast<int32_t>(std::max<int64_t>(
      1, config.disk.num_cylinders / object_cylinders_per_disk));
  vc.enable_replication = config.enable_replication;
  vc.replication_wait_threshold = config.replication_wait_threshold;
  vc.preload_objects = config.preload_objects;
  return vc;
}

// Builds, runs and tears down one cell.  Every object of the world is a
// local of this function, so its return ends the teardown that
// RunCell times as part of the cell.
Status Simulate(const Cell& cell, Tracer* tracer, StepSamples* samples,
                CellRun* run) {
  const ExperimentConfig& config = cell.config;
  STAGGER_RETURN_NOT_OK(config.Validate());
  if (config.scan_probability > 0.0 || config.zipf_theta > 0.0) {
    return Status::InvalidArgument("VCR scans and Zipf popularity are not wired");
  }
  run->vdr = config.scheme == Scheme::kVdr;
  run->sim_hours = (config.warmup + config.measure).hours();

  const Clock::time_point setup_start = Clock::now();
  Simulator sim;
  std::optional<Catalog> catalog;
  {
    Phase p(tracer, SpanKind::kSetupCatalog);
    catalog.emplace(Catalog::Uniform(config.num_objects,
                                     config.subobjects_per_object,
                                     config.display_bandwidth));
  }
  std::optional<DiskArray> disks;
  {
    Phase p(tracer, SpanKind::kSetupDisks);
    STAGGER_ASSIGN_OR_RETURN(
        DiskArray d,
        DiskArray::Create(config.num_disks, config.disk, config.num_spares));
    disks.emplace(std::move(d));
  }
  std::unique_ptr<TertiaryPool> tertiary_pool;
  std::unique_ptr<TimedMaterialization> timed_tertiary;
  std::unique_ptr<StripedServer> striped;
  std::unique_ptr<VdrServer> vdr;
  MediaService* server = nullptr;
  {
    Phase p(tracer, SpanKind::kSetupCreate);
    STAGGER_ASSIGN_OR_RETURN(
        tertiary_pool, TertiaryPool::Create(&sim, TertiaryDevice(config.tertiary),
                                            config.num_tertiary_devices));
    MaterializationService* tertiary = tertiary_pool.get();
    if (tracer != nullptr) {
      timed_tertiary =
          std::make_unique<TimedMaterialization>(tertiary_pool.get(), tracer);
      tertiary = timed_tertiary.get();
    }
    if (run->vdr) {
      STAGGER_ASSIGN_OR_RETURN(
          vdr, VdrServer::Create(&sim, &*catalog, tertiary, MakeVdrConfig(config)));
      server = vdr.get();
    } else {
      STAGGER_ASSIGN_OR_RETURN(
          striped, StripedServer::Create(&sim, &*catalog, &*disks, tertiary,
                                         MakeStripedConfig(config)));
      server = striped.get();
    }
  }
  STAGGER_ASSIGN_OR_RETURN(
      TruncatedGeometric popularity,
      TruncatedGeometric::FromMean(config.num_objects, config.geometric_mean));

  std::unique_ptr<FaultInjector> injector;
  if (!config.fault_plan.events().empty()) {
    STAGGER_ASSIGN_OR_RETURN(
        injector, FaultInjector::Create(&sim, &*disks, config.fault_plan));
    if (run->vdr) {
      VdrServer* v = vdr.get();
      DiskArray* d = &*disks;
      injector->OnDown([v, d](DiskId disk, SimTime) {
        v->OnDiskDown(disk, d->disk(disk).health() == DiskHealth::kFailed);
      });
      injector->OnUp([v](DiskId disk, SimTime) { v->OnDiskUp(disk); });
    } else {
      StripedServer* s = striped.get();
      injector->OnDown([s](DiskId disk, SimTime now) { s->OnDiskDown(disk, now); });
      injector->OnUp([s](DiskId disk, SimTime now) { s->OnDiskUp(disk, now); });
    }
  }

  std::unique_ptr<TimedMediaService> timed_server;
  MediaService* service = server;
  if (tracer != nullptr) {
    timed_server = std::make_unique<TimedMediaService>(server, tracer);
    service = timed_server.get();
  }
  std::unique_ptr<StationPool> stations;
  std::unique_ptr<OpenArrivals> arrivals;
  if (config.open_arrivals) {
    OpenArrivalsConfig oc;
    oc.mean_interarrival = config.mean_interarrival;
    oc.seed = config.seed;
    oc.diurnal_amplitude = config.diurnal_amplitude;
    oc.diurnal_period = config.diurnal_period;
    oc.flash_crowds = config.flash_crowds;
    oc.pause_probability = config.pause_probability;
    oc.mean_pause = config.mean_pause;
    oc.measure_start = config.warmup;
    STAGGER_RETURN_NOT_OK(oc.Validate());
    arrivals = std::make_unique<OpenArrivals>(&sim, service, &popularity,
                                              std::move(oc));
    arrivals->Start();
  } else {
    stations = std::make_unique<StationPool>(&sim, service, &popularity,
                                             config.stations, config.seed);
    stations->SetMeasurementWindowStart(config.warmup);
    stations->SetMeanThinkTime(config.mean_think_time);
    stations->Start();
  }
  run->setup_s = Since(setup_start);

  const Clock::time_point run_start = Clock::now();
  const SimTime end = config.warmup + config.measure;
  Counters& c = run->counters;
  // Steps end on the interval grid, where ticks fire, so a stepped run
  // dispatches the same batches as one RunUntil(end).
  if (tracer == nullptr) {
    for (int64_t k = 1;; ++k) {
      const SimTime t = std::min(config.Interval() * (k * kSliceIntervals), end);
      const Clock::time_point slice_start = Clock::now();
      sim.RunUntil(t);
      run->slice_s.push_back(Since(slice_start));
      if (t == end) break;
    }
  } else {
    // One step per scheduler interval: the tick at k * interval and
    // every event up to it.
    IntervalScheduler* scheduler = striped ? striped->scheduler() : nullptr;
    const BackgroundBudget* budget =
        striped ? striped->background_budget() : nullptr;
    const int64_t self_before = tracer->totals(SpanKind::kStep).self_ns;
    int64_t granted = 0;
    for (int64_t k = 0;; ++k) {
      const SimTime t = std::min(config.Interval() * k, end);
      tracer->Open(SpanKind::kStep);
      sim.RunUntil(t);
      const uint32_t ns = ClampNs(tracer->Close(SpanKind::kStep).duration_ns);
      ++c.intervals;
      if (scheduler != nullptr) {
        c.stream_ticks += static_cast<int64_t>(scheduler->active_streams());
        c.pending_ticks += static_cast<int64_t>(scheduler->pending_requests());
      }
      samples->all.push_back(ns);
      const int64_t g = budget ? budget->metrics().reads_granted : 0;
      (g > granted ? samples->granting : samples->idle).push_back(ns);
      granted = g;
      if (t == end) break;
    }
    run->step_self_ns = tracer->totals(SpanKind::kStep).self_ns - self_before;
  }
  run->run_s = Since(run_start);

  // Model outputs, computed as RunExperiment computes them.
  Outputs& o = run->outputs;
  if (config.open_arrivals) {
    const double window_sec = (sim.Now() - config.warmup).seconds();
    o.displays_completed = arrivals->completed_in_window();
    o.displays_per_hour =
        window_sec > 0.0 ? static_cast<double>(o.displays_completed) * 3600.0 /
                               window_sec
                         : 0.0;
    o.admission_p50_sec = arrivals->admission_latency_sec().p50();
    o.admission_p99_sec = arrivals->admission_latency_sec().p99();
  } else {
    o.displays_per_hour =
        stations->metrics().ThroughputPerHour(config.warmup, sim.Now());
    o.displays_completed = stations->metrics().displays_completed_in_window;
    o.admission_p50_sec = stations->metrics().startup_latency_quantiles_sec.p50();
    o.admission_p99_sec = stations->metrics().startup_latency_quantiles_sec.p99();
  }
  o.latent_unrepaired = disks->latent_errors().ActiveCells();
  if (run->vdr) {
    o.disk_utilization = vdr->MeanClusterUtilization();
  } else {
    o.disk_utilization = disks->MeanUtilization();
    o.hiccups = striped->scheduler_metrics().hiccups;
    o.corrupt_frames_delivered =
        striped->scheduler_metrics().corrupt_frames_delivered;
    if (const BackgroundBudget* budget = striped->background_budget()) {
      o.budget_violations = budget->metrics().budget_violations;
    }
    if (const StreamBatcher* batcher = striped->batcher();
        batcher != nullptr && !config.open_arrivals) {
      o.admission_p50_sec = batcher->metrics().admission_latency_sec.p50();
      o.admission_p99_sec = batcher->metrics().admission_latency_sec.p99();
    }
  }
  if (tracer == nullptr) return Status::OK();

  c.events = static_cast<int64_t>(sim.events_executed());
  c.batches = static_cast<int64_t>(sim.batches_dispatched());
  c.tertiary_completed = tertiary_pool->completed();
  c.requests_issued = config.open_arrivals ? arrivals->requests_issued()
                                           : stations->metrics().requests_issued;
  if (injector != nullptr) {
    const FaultInjectorMetrics& fm = injector->metrics();
    c.fault_events = fm.failures_injected + fm.stalls_injected +
                     fm.degrades_injected + fm.latent_errors_injected +
                     fm.recoveries_injected;
  }
  if (run->vdr) {
    c.evictions = vdr->metrics().evictions;
    c.resident_end = vdr->ResidentObjectCount();
    c.replications = vdr->metrics().replications;
    return Status::OK();
  }
  const SchedulerMetrics& sm = striped->scheduler_metrics();
  c.admitted = sm.displays_admitted;
  c.fragmented_admissions = sm.fragmented_admissions;
  c.coalesce_migrations = sm.coalesce_migrations;
  c.peak_buffered_fragments = sm.peak_buffered_fragments;
  c.degraded_reads = sm.degraded_reads;
  c.reconstructed_reads = sm.reconstructed_reads;
  c.streams_paused = sm.streams_paused;
  // SlotUtilization is busy / elapsed intervals of the slot's drive.
  for (DiskId d = 0; d < disks->num_disks(); ++d) {
    c.busy_drive_intervals += std::llround(
        disks->SlotUtilization(d) * static_cast<double>(disks->intervals()));
  }
  c.evictions = striped->object_manager().evictions();
  c.resident_end = striped->object_manager().ResidentCount();
  c.logical_requests = striped->metrics().requests;
  c.physical_streams = striped->metrics().requests;
  if (const StreamBatcher* batcher = striped->batcher()) {
    c.logical_requests = batcher->metrics().requests;
    c.physical_streams = batcher->metrics().physical_streams;
  }
  if (const RebuildManager* rebuild = striped->rebuild()) {
    c.fragments_rebuilt = rebuild->metrics().fragments_rebuilt;
  }
  if (const Scrubber* scrubber = striped->scrubber()) {
    c.stripes_verified = scrubber->metrics().stripes_scrubbed;
    c.errors_repaired = scrubber->metrics().latent_errors_repaired;
  }
  if (const BackgroundBudget* budget = striped->background_budget()) {
    c.reads_granted = budget->metrics().reads_granted;
    c.idle_capacity = budget->metrics().idle_capacity;
  }
  return Status::OK();
}

}  // namespace

Outputs FromResult(const ExperimentResult& r) {
  Outputs o;
  o.displays_per_hour = r.displays_per_hour;
  o.displays_completed = r.displays_completed;
  o.hiccups = r.hiccups;
  o.admission_p50_sec = r.admission_latency_p50_sec;
  o.admission_p99_sec = r.admission_latency_p99_sec;
  o.disk_utilization = r.disk_utilization;
  o.budget_violations = r.background_budget_violations;
  o.corrupt_frames_delivered = r.corrupt_frames_delivered;
  o.latent_unrepaired = r.latent_errors_unrepaired;
  return o;
}

bool SameBits(const Outputs& a, const Outputs& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return same(a.displays_per_hour, b.displays_per_hour) &&
         a.displays_completed == b.displays_completed &&
         a.hiccups == b.hiccups &&
         same(a.admission_p50_sec, b.admission_p50_sec) &&
         same(a.admission_p99_sec, b.admission_p99_sec) &&
         same(a.disk_utilization, b.disk_utilization) &&
         a.budget_violations == b.budget_violations &&
         a.corrupt_frames_delivered == b.corrupt_frames_delivered &&
         a.latent_unrepaired == b.latent_unrepaired;
}

std::string Format(const Outputs& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%a %lld %lld %a %a %a %lld %lld %lld",
                o.displays_per_hour, static_cast<long long>(o.displays_completed),
                static_cast<long long>(o.hiccups), o.admission_p50_sec,
                o.admission_p99_sec, o.disk_utilization,
                static_cast<long long>(o.budget_violations),
                static_cast<long long>(o.corrupt_frames_delivered),
                static_cast<long long>(o.latent_unrepaired));
  return buf;
}

bool Parse(const std::string& text, Outputs* o) {
  std::istringstream in(text);
  std::string dph, p50, p99, util;
  long long completed = 0, hiccups = 0, violations = 0, corrupt = 0, latent = 0;
  if (!(in >> dph >> completed >> hiccups >> p50 >> p99 >> util >> violations >>
        corrupt >> latent)) {
    return false;
  }
  std::string extra;
  if (in >> extra) return false;
  auto num = [](const std::string& s, double* out) {
    char* endp = nullptr;
    *out = std::strtod(s.c_str(), &endp);
    return endp != s.c_str() && *endp == '\0';
  };
  o->displays_completed = completed;
  o->hiccups = hiccups;
  o->budget_violations = violations;
  o->corrupt_frames_delivered = corrupt;
  o->latent_unrepaired = latent;
  return num(dph, &o->displays_per_hour) && num(p50, &o->admission_p50_sec) &&
         num(p99, &o->admission_p99_sec) && num(util, &o->disk_utilization);
}

std::string InvariantFailure(const Outputs& o) {
  if (o.hiccups != 0) return "hiccups";
  if (o.budget_violations != 0) return "background budget violations";
  if (o.corrupt_frames_delivered != 0) return "corrupt frames delivered";
  if (o.displays_completed <= 0) return "no display completed";
  return "";
}

Result<CellRun> RunCell(const Cell& cell, Tracer* tracer, StepSamples* samples) {
  CellRun run;
  const Clock::time_point start = Clock::now();
  if (tracer != nullptr) tracer->Open(SpanKind::kCell);
  const Status status = Simulate(cell, tracer, samples, &run);
  if (tracer != nullptr) tracer->Close(SpanKind::kCell);
  run.wall_s = Since(start);
  if (!status.ok()) return status;
  return run;
}

}  // namespace simbench
