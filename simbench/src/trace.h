// Tracing for the benchmark's traced run: spans opened and closed from
// the benchmark's own code around each call into a library module, and
// timing decorators for the two service interfaces the library lets a
// caller substitute (MediaService, MaterializationService).  The
// library itself is not instrumented.

#ifndef SIMBENCH_TRACE_H_
#define SIMBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "tertiary/tertiary_manager.h"
#include "workload/media_service.h"

namespace simbench {

enum class SpanKind : uint8_t {
  kCell,           ///< one whole cell: set-up, run, teardown
  kSetupCatalog,   ///< Catalog::Uniform
  kSetupDisks,     ///< DiskArray::Create
  kSetupCreate,    ///< TertiaryPool::Create + server Create with preload
  kStep,           ///< Simulator::RunUntil over one scheduler interval
  kRequest,        ///< MediaService::RequestDisplay on the server
  kCallback,       ///< a station/arrival started/completed/interrupted callback
  kEnqueue,        ///< MaterializationService::Enqueue on the tertiary pool
  kNumKinds,
};

/// Span name as exported ("<layer>.<what>").
const char* SpanName(SpanKind kind);

/// Count, inclusive time and self time of every closed span of a kind.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// \brief Span recorder.  Always aggregates per-kind totals; when
/// `record` is set it also keeps the spans themselves (interval steps
/// only every `keep_every_step`-th) for the Chrome trace export.
class Tracer {
 public:
  Tracer(bool record, int64_t keep_every_step);

  /// Host nanoseconds since the tracer was created.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void set_cell(int32_t cell) { cell_ = cell; }
  /// Stops keeping spans (totals continue).
  void stop_recording() { record_ = false; }

  void Open(SpanKind kind);
  /// Closes the innermost open span, which must be of `kind`.
  SpanStack::Closed Close(SpanKind kind);

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  void ResetTotals() { totals_ = {}; }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events; ts
  /// and dur in microseconds; args carry id, parent id and cell index).
  /// `other_data` is a JSON object embedded verbatim as "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data) const;
  size_t kept_spans() const { return spans_.size(); }

 private:
  struct OpenSpan {
    SpanKind kind;
    int64_t id;
    int64_t start_ns;
    bool keep;
  };
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;
    int32_t cell;
    SpanKind kind;
  };

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  bool record_;
  int64_t keep_every_step_;
  int64_t steps_seen_ = 0;
  int64_t next_id_ = 0;
  int32_t cell_ = -1;
  SpanStack stack_;
  std::vector<OpenSpan> open_;
  std::vector<Span> spans_;
  std::array<SpanTotals, static_cast<size_t>(SpanKind::kNumKinds)> totals_{};
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer), kind_(kind) {
    tracer_->Open(kind_);
  }
  ~ScopedSpan() { tracer_->Close(kind_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanKind kind_;
};

/// Times RequestDisplay on the wrapped server, and each callback the
/// caller hands in (a workload callback span around the caller's code).
class TimedMediaService : public stagger::MediaService {
 public:
  TimedMediaService(stagger::MediaService* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  stagger::Status RequestDisplay(stagger::ObjectId object, StartedFn on_started,
                                 CompletedFn on_completed,
                                 InterruptedFn on_interrupted) override;

 private:
  stagger::MediaService* inner_;
  Tracer* tracer_;
};

/// Times Enqueue on the wrapped tertiary service; the queries forward.
class TimedMaterialization : public stagger::MaterializationService {
 public:
  TimedMaterialization(stagger::MaterializationService* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void Enqueue(stagger::ObjectId object, stagger::DataSize size,
               stagger::MaterializationCompletionFn on_complete,
               stagger::MaterializationStartFn on_start) override;
  int64_t completed() const override { return inner_->completed(); }
  size_t queue_length() const override { return inner_->queue_length(); }
  double Utilization(stagger::SimTime now) const override {
    return inner_->Utilization(now);
  }

 private:
  stagger::MaterializationService* inner_;
  Tracer* tracer_;
};

}  // namespace simbench

#endif  // SIMBENCH_TRACE_H_
