// Per-request trace spans (DESIGN.md §12 "Observability model").
//
// Aggregate counters (serving.* metrics, usage-journal rows) explain what
// the fleet did; they cannot answer "why did request R exit at stage 2,
// degraded, after a retry?". A TraceRecorder captures that per-request
// timeline: one *span* per request, a flat stream of timestamped events
// appended as the request moves admission → brownout decision → stage
// results and failures (each naming the worker that ran it) → exit. Events
// live in a fixed-capacity ring buffer —
// recording never allocates after construction and never blocks progress on
// a full buffer (the oldest events are overwritten and counted in
// dropped()).
//
// Plumbing: the server takes an optional TraceRecorder* in its config, and
// sched::Engine carries a SpanHandle per request.
// A default (null) SpanHandle makes every event() call a no-op branch, so
// untraced runs pay one predictable-not-taken branch per event site —
// BM_TracedRequest in bench_micro.cpp pins the traced-vs-untraced delta
// under 5% per request. Timestamps come from the caller's Clock (the same
// time base as deadlines), never from a clock read inside the recorder.
//
// Thread-safety: record() may be called from any thread (one ranked mutex,
// LockRank::kTrace, nothing nests inside it); events()/span() snapshot
// under the same mutex. Span ids are unique per recorder and never 0 — a
// zero id on a response means the run was not traced.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_annotations.hpp"

namespace eugene::telemetry {

/// One step in a request's lifecycle. `stage`/`worker`/`value` are
/// kind-specific (documented per enumerator); unused fields are 0.
enum class TraceEventKind : std::uint8_t {
  kAdmit = 0,    ///< request entered the system; value = service class
  kBrownout,     ///< admission under brown-out; value = level (> 0)
  kShed,         ///< admission controller shed it; value = 1 if the brown-out
                 ///< level (not the static ceiling) shed it
  kStageDone,    ///< stage result accepted; stage, worker, value = confidence
  kStageError,   ///< stage threw; stage, worker
  kRetry,        ///< the failed stage runs again at once; stage, worker
  kExpire,       ///< latency daemon expired the request
  kDegrade,      ///< budget exhausted; answering with best result so far
  kExit,         ///< final response emitted; stage = stages_run,
                 ///< value = confidence
  kDrain,        ///< request rejected because the server is draining
  kSwap,         ///< registry mutation published a new epoch while this
                 ///< request was in flight; value = new epoch number
};

/// Stable lower-case name of a kind ("admit", "stage_done", ...).
const char* trace_event_kind_name(TraceEventKind kind);

/// One ring-buffer entry: 32 bytes, trivially copyable.
struct TraceEvent {
  std::uint64_t span = 0;  ///< owning span id (never 0 for recorded events)
  double t_ms = 0.0;       ///< caller-provided Clock timestamp
  double value = 0.0;      ///< kind-specific payload
  std::uint32_t stage = 0;
  std::uint32_t worker = 0;
  TraceEventKind kind = TraceEventKind::kAdmit;
};

class TraceRecorder;

/// Null-safe handle carried on task/request structs. Default-constructed
/// handles are inert: event() is a single branch, id() is 0.
class SpanHandle {
 public:
  SpanHandle() = default;

  std::uint64_t id() const { return id_; }
  explicit operator bool() const { return recorder_ != nullptr; }

  /// Appends one event to the owning span; no-op on a null handle.
  void event(TraceEventKind kind, double t_ms, std::uint32_t stage = 0,
             std::uint32_t worker = 0, double value = 0.0) const;

 private:
  friend class TraceRecorder;
  SpanHandle(TraceRecorder* recorder, std::uint64_t id)
      : recorder_(recorder), id_(id) {}

  TraceRecorder* recorder_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Fixed-capacity ring of TraceEvents shared by every span of a recorder.
class TraceRecorder {
 public:
  /// `capacity` bounds the retained event count; older events are
  /// overwritten (and counted in dropped()) once it is exceeded.
  explicit TraceRecorder(std::size_t capacity = 4096);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a new span and records its kAdmit event. Span ids are unique for
  /// the life of the recorder and never 0.
  SpanHandle begin_span(double t_ms, std::uint32_t service_class = 0)
      EUGENE_EXCLUDES(mutex_);

  /// Appends one event (called through SpanHandle::event).
  void record(const TraceEvent& ev) EUGENE_EXCLUDES(mutex_);

  /// Snapshot of retained events, oldest first.
  std::vector<TraceEvent> events() const EUGENE_EXCLUDES(mutex_);

  /// Retained events of one span, oldest first (empty for unknown ids or
  /// spans whose events were all overwritten).
  std::vector<TraceEvent> span(std::uint64_t id) const EUGENE_EXCLUDES(mutex_);

  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const EUGENE_EXCLUDES(mutex_);

  /// Forgets all retained events (span ids keep advancing).
  void clear() EUGENE_EXCLUDES(mutex_);

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kTrace, "TraceRecorder::mutex_"};
  std::vector<TraceEvent> ring_ EUGENE_GUARDED_BY(mutex_);
  std::size_t next_ EUGENE_GUARDED_BY(mutex_) = 0;  ///< next write slot
  std::size_t size_ EUGENE_GUARDED_BY(mutex_) = 0;  ///< retained (≤ capacity)
  std::uint64_t next_span_ EUGENE_GUARDED_BY(mutex_) = 1;
  std::uint64_t dropped_ EUGENE_GUARDED_BY(mutex_) = 0;
};

inline void SpanHandle::event(TraceEventKind kind, double t_ms,
                              std::uint32_t stage, std::uint32_t worker,
                              double value) const {
  if (recorder_ == nullptr) return;
  TraceEvent ev;
  ev.span = id_;
  ev.kind = kind;
  ev.t_ms = t_ms;
  ev.stage = stage;
  ev.worker = worker;
  ev.value = value;
  recorder_->record(ev);
}

}  // namespace eugene::telemetry
