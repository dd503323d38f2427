#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

namespace simbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCell: return "bench.cell";
    case SpanKind::kSetupCatalog: return "server.setup_catalog";
    case SpanKind::kSetupDisks: return "server.setup_disks";
    case SpanKind::kSetupCreate: return "server.setup_create";
    case SpanKind::kStep: return "core.step";
    case SpanKind::kRequest: return "server.RequestDisplay";
    case SpanKind::kCallback: return "workload.callback";
    case SpanKind::kEnqueue: return "tertiary.Enqueue";
    case SpanKind::kNumKinds: break;
  }
  return "unknown";
}

Tracer::Tracer(bool record, int64_t keep_every_step)
    : record_(record), keep_every_step_(keep_every_step < 1 ? 1 : keep_every_step) {}

void Tracer::Open(SpanKind kind) {
  bool keep = record_;
  if (kind == SpanKind::kStep) keep = keep && steps_seen_++ % keep_every_step_ == 0;
  const int64_t start = NowNs();
  open_.push_back({kind, next_id_++, start, keep});
  stack_.Open(start);
}

SpanStack::Closed Tracer::Close(SpanKind kind) {
  const int64_t end = NowNs();
  const OpenSpan span = open_.back();
  open_.pop_back();
  if (span.kind != kind) {
    std::fprintf(stderr, "simbench: span %s closed as %s\n", SpanName(span.kind),
                 SpanName(kind));
    std::abort();
  }
  const SpanStack::Closed closed = stack_.Close(end);
  SpanTotals& t = totals_[static_cast<size_t>(kind)];
  ++t.count;
  t.total_ns += closed.duration_ns;
  t.self_ns += closed.self_ns;
  if (span.keep) {
    spans_.push_back({span.start_ns, end, span.id,
                      open_.empty() ? -1 : open_.back().id, cell_, kind});
  }
  return closed;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_data) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n"
                        "\"traceEvents\": [\n",
               other_data.c_str());
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"cell\": %d}}",
                 first ? "" : ",\n", SpanName(s.kind),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 s.cell);
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

stagger::Status TimedMediaService::RequestDisplay(stagger::ObjectId object,
                                                  StartedFn on_started,
                                                  CompletedFn on_completed,
                                                  InterruptedFn on_interrupted) {
  Tracer* tracer = tracer_;
  StartedFn started;
  if (on_started) {
    started = [tracer, fn = std::move(on_started)](stagger::SimTime latency) {
      ScopedSpan span(tracer, SpanKind::kCallback);
      fn(latency);
    };
  }
  CompletedFn completed;
  if (on_completed) {
    completed = [tracer, fn = std::move(on_completed)] {
      ScopedSpan span(tracer, SpanKind::kCallback);
      fn();
    };
  }
  InterruptedFn interrupted;
  if (on_interrupted) {
    interrupted = [tracer, fn = std::move(on_interrupted)] {
      ScopedSpan span(tracer, SpanKind::kCallback);
      fn();
    };
  }
  ScopedSpan span(tracer_, SpanKind::kRequest);
  return inner_->RequestDisplay(object, std::move(started), std::move(completed),
                                std::move(interrupted));
}

void TimedMaterialization::Enqueue(stagger::ObjectId object,
                                   stagger::DataSize size,
                                   stagger::MaterializationCompletionFn on_complete,
                                   stagger::MaterializationStartFn on_start) {
  ScopedSpan span(tracer_, SpanKind::kEnqueue);
  inner_->Enqueue(object, size, std::move(on_complete), std::move(on_start));
}

}  // namespace simbench
