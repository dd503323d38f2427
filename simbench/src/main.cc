// The benchmark binary.  Runs one workload's cells serially in this single
// thread for --seconds, checks every cell's model outputs, and prints
// the metrics as its last stdout line:
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--pins <file>] [--trace-out <file>]
//   simbench --workload <name> --seed <n> --print-pins
//
// --trace 0 times untraced passes over the cells and reports the
// end-to-end metrics.  --trace 1 runs RunExperiment and one untraced
// pass as references, then traced passes, and reports the per-layer
// metrics.  METRICS.md defines every metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cell.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef SIMBENCH_FLAGS
#define SIMBENCH_FLAGS "unknown"
#endif

namespace simbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool print_pins = false;
  std::string pins;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-pins") {
      a->print_pins = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--pins") {
      a->pins = value;
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

// Machine fingerprint recorded with every result.
std::string Fingerprint() {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": " << JsonString(CpuModel())
     << ", \"compiler\": " << JsonString(__VERSION__)
     << ", \"build\": " << JsonString(SIMBENCH_FLAGS) << "}";
  return os.str();
}

// Pinned outputs of the cells of (workload, seed), by cell id.  Empty
// when the file pins nothing for them.
bool LoadPins(const std::string& path, const std::string& workload,
              uint64_t seed, std::map<std::string, Outputs>* pins) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, cell;
    uint64_t s = 0;
    if (!(ls >> w >> s >> cell)) return false;
    std::string rest;
    std::getline(ls, rest);
    Outputs o;
    if (!Parse(rest, &o)) return false;
    if (w == workload && s == seed) (*pins)[cell] = o;
  }
  return true;
}

class Checker {
 public:
  explicit Checker(std::map<std::string, Outputs> pins) : pins_(std::move(pins)) {}

  // Runs every check that applies to `o`, counting the operation.
  void Check(const Cell& cell, const char* what, const Outputs& o,
             const Outputs* reference) {
    ++attempted_;
    std::string why = InvariantFailure(o);
    if (why.empty() && reference != nullptr && !SameBits(o, *reference)) {
      why = "differs from the reference run";
    }
    if (why.empty() && !pins_.empty()) {
      auto it = pins_.find(cell.id);
      if (it == pins_.end()) {
        why = "no pinned outputs for this cell";
      } else if (!SameBits(o, it->second)) {
        why = "differs from pinned outputs " + Format(it->second);
      }
    }
    if (!why.empty()) Fail(cell, what, why + ": " + Format(o));
  }

  void CountError(const Cell& cell, const char* what, const std::string& why) {
    ++attempted_;
    Fail(cell, what, why);
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool pinned() const { return !pins_.empty(); }

 private:
  void Fail(const Cell& cell, const char* what, const std::string& why) {
    ++failed_;
    std::printf("FAIL %s (%s): %s\n", cell.id.c_str(), what, why.c_str());
  }

  std::map<std::string, Outputs> pins_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// Keeps this thread on `cpu` until the next call.  Failure leaves the
// thread where the scheduler puts it.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// True while another pass of about `pass_s` seconds still ends within
// `seconds` of `start`, so that a run stays within its time.
bool PassFits(Clock::time_point start, double seconds, double pass_s) {
  return Since(start) + pass_s <= seconds;
}

// --trace 0: a warm-up pass, then timed passes while they fit in the
// time.  At least one pass is timed.
std::vector<Metric> EndToEnd(const std::vector<Cell>& cells, double seconds,
                             Checker* checker) {
  // fastest[i]: the fastest time over the timed passes of each piece of
  // cell i: its set-up (first), each slice of its run, and the rest
  // (wiring before set-up, outputs, teardown).
  std::vector<std::vector<double>> fastest(cells.size());
  std::vector<double> pass_walls;
  std::vector<Outputs> first(cells.size());
  double sim_hours = 0.0;
  // Each pass runs on the next CPU in turn.  Left alone, a run can spend
  // all its passes on one vCPU whose physical core another tenant keeps
  // busy, and then no slice meets a quiet moment (METRICS.md, Host noise).
  const std::vector<int> cpus = AllowedCpus();
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    if (cpus.size() > 1) PinTo(cpus[pass % cpus.size()]);
    double wall = 0.0, setup = 0.0, hours = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      auto run = RunCell(cells[i], nullptr, nullptr);
      if (!run.ok()) {
        checker->CountError(cells[i], "untraced", run.status().ToString());
        continue;
      }
      checker->Check(cells[i], "untraced", run->outputs,
                     pass == 0 ? nullptr : &first[i]);
      if (pass == 0) {
        first[i] = run->outputs;
      } else {
        std::vector<double> pieces = {run->setup_s};
        pieces.insert(pieces.end(), run->slice_s.begin(), run->slice_s.end());
        pieces.push_back(run->wall_s - run->setup_s - run->run_s);
        if (!KeepFastest(pieces, &fastest[i])) {
          checker->CountError(cells[i], "untraced", "run sliced differently");
        }
      }
      wall += run->wall_s;
      setup += run->setup_s;
      hours += run->sim_hours;
    }
    std::printf("pass %zu%s wall_s %.6f setup_s %.6f\n", pass,
                pass == 0 ? " (warm-up)" : "", wall, setup);
    pass_walls.push_back(wall);
    sim_hours = hours;
    if (pass > 0 && !PassFits(start, seconds, Median(pass_walls))) break;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // The fastest time of every piece, summed.  Other tenants of a shared
  // host slow single runs by tens of percent for seconds to minutes at
  // a time; a piece of a few milliseconds almost always meets a quiet
  // moment in some pass, so these sums move far less from run to run
  // than any median (METRICS.md, Host noise).
  double wall_s = 0.0, setup_s = 0.0;
  for (const std::vector<double>& pieces : fastest) {
    for (double piece : pieces) wall_s += piece;
    if (!pieces.empty()) setup_s += pieces.front();
  }
  const std::vector<double> timed(pass_walls.begin() + 1, pass_walls.end());
  std::printf("timed passes %zu, median pass %.6f s, fastest pass %.6f s\n",
              timed.size(), Median(timed),
              *std::min_element(timed.begin(), timed.end()));
  return {{"wall_s", wall_s, "s"},
          {"sim_h_per_s", Ratio(sim_hours, wall_s), "h/s"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6, "MB"}};
}

// Per-layer figures of one traced pass.
std::vector<Metric> LayerPass(const Tracer& tracer,
                                        const std::vector<CellRun>& runs,
                                        StepSamples* samples, double wall) {
  Counters sum;
  double vdr_run_s = 0.0;
  int64_t striped_self_ns = 0;
  for (const CellRun& r : runs) {
    const Counters& c = r.counters;
    sum.intervals += c.intervals;
    sum.stream_ticks += c.stream_ticks;
    sum.pending_ticks += c.pending_ticks;
    sum.admitted += c.admitted;
    sum.fragmented_admissions += c.fragmented_admissions;
    sum.coalesce_migrations += c.coalesce_migrations;
    sum.peak_buffered_fragments =
        std::max(sum.peak_buffered_fragments, c.peak_buffered_fragments);
    sum.events += c.events;
    sum.batches += c.batches;
    sum.busy_drive_intervals += c.busy_drive_intervals;
    sum.evictions += c.evictions;
    sum.resident_end += c.resident_end;
    sum.tertiary_completed += c.tertiary_completed;
    sum.replications += c.replications;
    sum.requests_issued += c.requests_issued;
    sum.logical_requests += c.logical_requests;
    sum.physical_streams += c.physical_streams;
    sum.fault_events += c.fault_events;
    sum.degraded_reads += c.degraded_reads;
    sum.reconstructed_reads += c.reconstructed_reads;
    sum.streams_paused += c.streams_paused;
    sum.fragments_rebuilt += c.fragments_rebuilt;
    sum.stripes_verified += c.stripes_verified;
    sum.errors_repaired += c.errors_repaired;
    sum.reads_granted += c.reads_granted;
    sum.idle_capacity += c.idle_capacity;
    if (r.vdr) {
      vdr_run_s += r.run_s;
    } else {
      striped_self_ns += r.step_self_ns;
    }
  }
  const auto t = [&](SpanKind k) { return tracer.totals(k); };
  const auto secs = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto mean = [](int64_t ns, int64_t n) {
    return Ratio(static_cast<double>(ns), static_cast<double>(n));
  };
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  const Percentile p50 = NearestRank(samples->all, 0.50);
  const Percentile p99 = NearestRank(samples->all, 0.99);
  const Percentile granting = NearestRank(samples->granting, 0.50);
  const Percentile idle = NearestRank(samples->idle, 0.50);
  return {
      {"server.setup_catalog_s", secs(t(SpanKind::kSetupCatalog).total_ns), "s"},
      {"server.setup_disks_s", secs(t(SpanKind::kSetupDisks).total_ns), "s"},
      {"server.setup_create_s", secs(t(SpanKind::kSetupCreate).total_ns), "s"},
      {"server.request_calls", d(t(SpanKind::kRequest).count), "count"},
      {"server.request_ns_mean",
       mean(t(SpanKind::kRequest).total_ns, t(SpanKind::kRequest).count), "ns"},
      {"server.request_self_s", secs(t(SpanKind::kRequest).self_ns), "s"},
      {"sim.events", d(sum.events), "count"},
      {"sim.batches", d(sum.batches), "count"},
      {"sim.events_per_interval", Ratio(d(sum.events), d(sum.intervals)), "ratio"},
      {"core.intervals", d(sum.intervals), "count"},
      {"core.step_p50_us", p50.value / 1e3, "us"},
      {"core.step_p99_us", p99.value / 1e3, "us"},
      {"core.step_samples", d(static_cast<int64_t>(p99.samples)), "count"},
      {"core.step_samples_beyond_p99", d(static_cast<int64_t>(p99.beyond)), "count"},
      {"core.step_self_s", secs(t(SpanKind::kStep).self_ns), "s"},
      {"core.stream_ticks", d(sum.stream_ticks), "count"},
      {"core.ns_per_stream_tick",
       Ratio(d(striped_self_ns), d(sum.stream_ticks)), "ns"},
      {"core.pending_ticks", d(sum.pending_ticks), "count"},
      {"core.admitted", d(sum.admitted), "count"},
      {"core.admit_ratio", AdmitRatio(sum.admitted, sum.pending_ticks), "ratio"},
      {"core.fragmented_admissions", d(sum.fragmented_admissions), "count"},
      {"core.coalesce_migrations", d(sum.coalesce_migrations), "count"},
      {"core.peak_buffered_fragments", d(sum.peak_buffered_fragments), "count"},
      {"disk.busy_drive_intervals", d(sum.busy_drive_intervals), "count"},
      {"storage.evictions", d(sum.evictions), "count"},
      {"storage.resident_end", d(sum.resident_end), "count"},
      {"tertiary.enqueues", d(t(SpanKind::kEnqueue).count), "count"},
      {"tertiary.enqueue_ns_mean",
       mean(t(SpanKind::kEnqueue).total_ns, t(SpanKind::kEnqueue).count), "ns"},
      {"tertiary.completed", d(sum.tertiary_completed), "count"},
      {"baseline.run_s", vdr_run_s, "s"},
      {"baseline.replications", d(sum.replications), "count"},
      {"workload.callbacks", d(t(SpanKind::kCallback).count), "count"},
      {"workload.callback_self_ns_mean",
       mean(t(SpanKind::kCallback).self_ns, t(SpanKind::kCallback).count), "ns"},
      {"workload.requests_issued", d(sum.requests_issued), "count"},
      {"workload.physical_streams", d(sum.physical_streams), "count"},
      {"workload.mean_fanout",
       Ratio(d(sum.logical_requests), d(sum.physical_streams)), "ratio"},
      {"fault.events_applied", d(sum.fault_events), "count"},
      {"fault.degraded_reads", d(sum.degraded_reads), "count"},
      {"fault.reconstructed_reads", d(sum.reconstructed_reads), "count"},
      {"fault.streams_paused", d(sum.streams_paused), "count"},
      {"rebuild.fragments_rebuilt", d(sum.fragments_rebuilt), "count"},
      {"scrub.stripes_verified", d(sum.stripes_verified), "count"},
      {"scrub.errors_repaired", d(sum.errors_repaired), "count"},
      {"background.reads_granted", d(sum.reads_granted), "count"},
      {"background.grant_ratio", GrantRatio(sum.reads_granted, sum.idle_capacity), "ratio"},
      {"background.granting_steps", d(static_cast<int64_t>(granting.samples)), "count"},
      {"background.step_p50_us_granting", granting.value / 1e3, "us"},
      {"background.step_p50_us_idle", idle.value / 1e3, "us"},
      {"trace.traced_wall_s", wall, "s"},
  };
}

// --trace 1: references first, then traced passes while they fit in the
// time.  At least one pass is traced.
std::vector<Metric> PerLayer(const std::vector<Cell>& cells, const Args& args,
                             Checker* checker) {
  const Clock::time_point start = Clock::now();
  std::vector<Outputs> reference(cells.size());
  double untraced_wall = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    auto experiment = stagger::RunExperiment(cells[i].config);
    if (!experiment.ok()) {
      checker->CountError(cells[i], "RunExperiment", experiment.status().ToString());
      continue;
    }
    reference[i] = FromResult(*experiment);
    checker->Check(cells[i], "RunExperiment", reference[i], nullptr);
    auto run = RunCell(cells[i], nullptr, nullptr);
    if (!run.ok()) {
      checker->CountError(cells[i], "untraced", run.status().ToString());
      continue;
    }
    checker->Check(cells[i], "untraced", run->outputs, &reference[i]);
    untraced_wall += run->wall_s;
  }

  Tracer tracer(/*record=*/!args.trace_out.empty(), /*keep_every_step=*/1000);
  std::map<std::string, std::vector<double>> passes;
  std::vector<Metric> layers;
  do {
    tracer.ResetTotals();
    StepSamples samples;
    std::vector<CellRun> runs;
    double wall = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      tracer.set_cell(static_cast<int32_t>(i));
      auto run = RunCell(cells[i], &tracer, &samples);
      if (!run.ok()) {
        checker->CountError(cells[i], "traced", run.status().ToString());
        continue;
      }
      checker->Check(cells[i], "traced", run->outputs, &reference[i]);
      if (passes.empty()) {
        const Counters& c = run->counters;
        std::printf("cell %-18s run_s %.4f step_self_s %.4f intervals %lld "
                    "stream_ticks %lld pending_ticks %lld admitted %lld "
                    "reads_granted %lld\n",
                    cells[i].id.c_str(), run->run_s,
                    static_cast<double>(run->step_self_ns) / 1e9,
                    static_cast<long long>(c.intervals),
                    static_cast<long long>(c.stream_ticks),
                    static_cast<long long>(c.pending_ticks),
                    static_cast<long long>(c.admitted),
                    static_cast<long long>(c.reads_granted));
      }
      wall += run->wall_s;
      runs.push_back(*std::move(run));
    }
    if (!args.trace_out.empty() && passes.empty()) {
      std::ostringstream other;
      other << "{\"workload\": " << JsonString(args.workload)
            << ", \"seed\": " << args.seed << ", \"fingerprint\": " << Fingerprint()
            << ", \"cells\": [";
      for (size_t i = 0; i < cells.size(); ++i) {
        other << (i ? ", " : "") << JsonString(cells[i].id);
      }
      other << "]}";
      if (!tracer.WriteChromeTrace(args.trace_out, other.str())) {
        std::fprintf(stderr, "simbench: cannot write %s\n", args.trace_out.c_str());
      } else {
        std::printf("trace %s (%zu spans)\n", args.trace_out.c_str(),
                    tracer.kept_spans());
      }
      tracer.stop_recording();
    }
    const std::vector<Metric> pass = LayerPass(tracer, runs, &samples, wall);
    if (passes.empty()) layers = pass;
    for (const Metric& m : pass) passes[m.name].push_back(m.value);
  } while (PassFits(start, args.seconds, Median(passes["trace.traced_wall_s"])));

  std::vector<Metric> metrics;
  for (Metric m : layers) {
    m.value = Median(passes[m.name]);
    metrics.push_back(m);
  }
  const double traced_wall = Median(passes["trace.traced_wall_s"]);
  metrics.push_back({"trace.untraced_wall_s", untraced_wall, "s"});
  metrics.push_back({"trace.overhead_s", traced_wall - untraced_wall, "s"});
  std::printf("traced passes %zu\n", passes["trace.traced_wall_s"].size());
  return metrics;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--pins <file>] [--trace-out <file>]\n"
                 "       simbench --workload <name> --seed <n> --print-pins\n");
    return 2;
  }
#if defined(STAGGER_AUDIT) || !defined(NDEBUG)
  // Same rule as tools/check_bench_regression.py: audit hooks or
  // assertions measure a different program.
  std::fprintf(stderr,
               "simbench: refusing to report from a build with assertions or "
               "STAGGER_AUDIT; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  const std::vector<Cell> cells = MakeCells(args.workload, args.seed);
  if (cells.empty()) {
    std::fprintf(stderr, "simbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.print_pins) {
    for (const Cell& cell : cells) {
      auto run = RunCell(cell, nullptr, nullptr);
      if (!run.ok()) {
        std::fprintf(stderr, "simbench: %s: %s\n", cell.id.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      std::printf("%s %" PRIu64 " %s %s\n", args.workload.c_str(), args.seed,
                  cell.id.c_str(), Format(run->outputs).c_str());
    }
    return 0;
  }

  std::map<std::string, Outputs> pins;
  if (!args.pins.empty() && !LoadPins(args.pins, args.workload, args.seed, &pins)) {
    std::fprintf(stderr, "simbench: cannot read pins from %s\n", args.pins.c_str());
    return 2;
  }
  Checker checker(std::move(pins));
  std::printf("fingerprint %s\n", Fingerprint().c_str());
  std::printf("workload %s seed %" PRIu64 " cells %zu pinned %s\n",
              args.workload.c_str(), args.seed, cells.size(),
              checker.pinned() ? "yes" : "no");
  const std::vector<Metric> metrics = args.trace ? PerLayer(cells, args, &checker)
                                                 : EndToEnd(cells, args.seconds, &checker);
  PrintResult(checker, metrics);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }
