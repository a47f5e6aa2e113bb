// Pieces of the serving benchmark that do not depend on a trained model:
// percentiles, the seeded open-loop arrival schedule, the load-ladder rule,
// the correctness gate, and the in-memory span recorder with its Chrome
// trace exporter. main.cpp wires them to EugeneService; tests.cpp checks
// them on synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serving/server.hpp"

namespace servebench {

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 · n) of the
/// ascending `sorted` sample. p in (0, 100]; the sample must be non-empty.
double nearest_rank(std::span<const double> sorted, double p);

/// Number of samples strictly above the nearest-rank position of p in n.
std::size_t samples_beyond(std::size_t n, double p);

/// A percentile is reported only when at least ten samples lie beyond it.
bool percentile_supported(std::size_t n, double p);

// ---- open-loop arrivals ----------------------------------------------------

struct Arrival {
  double due_ms = 0.0;            ///< offset from the start of the schedule
  std::size_t service_class = 0;
  std::size_t input = 0;          ///< index into the input pool
};

/// Merged Poisson schedule: class c arrives at class_rates_per_s[c] with
/// exponential gaps over [0, duration_ms), each arrival drawing a uniform
/// pool input. Every class has its own stream derived from `seed`, so the
/// same seed always yields the same schedule. Sorted by due time.
std::vector<Arrival> poisson_schedule(std::span<const double> class_rates_per_s,
                                      double duration_ms, std::size_t pool_size,
                                      std::uint64_t seed);

// ---- load ladder -----------------------------------------------------------

/// What one rung of the ladder observed.
struct RungObservation {
  double rate_rps = 0.0;
  /// due → return of the answering call, per service class.
  std::vector<std::vector<double>> latency_ms;
  /// due → start of the call, in due order (all classes).
  std::vector<double> queue_wait_ms;
  /// Arrivals stopped early because the backlog passed the abort cap.
  bool aborted = false;
};

/// Backlog growth: the median queue wait of the last quarter of a rung's
/// requests exceeds that of the first quarter by more than kBacklogGrowthMs.
inline constexpr double kBacklogGrowthMs = 5.0;
bool backlog_grows(std::span<const double> queue_wait_ms);

/// A rung passes when every class's p99 (nearest rank, timed from its due
/// time) is within the class deadline, the backlog does not grow, and the
/// rung was not aborted.
bool rung_passes(const RungObservation& rung, std::span<const double> deadlines_ms);

/// Index of the highest passing rung of a ladder that stops at its first
/// failing rung; -1 when the first rung already fails.
int highest_passing_rung(std::span<const RungObservation> rungs,
                         std::span<const double> deadlines_ms);

// ---- correctness gate --------------------------------------------------------

/// Per-sample answer of one stage, computed with StagedModel::run_stage.
struct StageRef {
  std::size_t label = 0;
  float confidence = 0.0f;
};
/// reference[input][stage]: the per-sample stage chain for every pool input.
using Reference = std::vector<std::vector<StageRef>>;

enum class Verdict {
  kOk,
  kThrew,           ///< infer_batch threw
  kMissing,         ///< the call did not return exactly one response per request
  kDraining,        ///< answered with a drain rejection
  kNoSpan,          ///< span_id == 0
  kBadStages,       ///< stages_run outside [0, stages], or 0 without a reason
  kMismatch,        ///< label/confidence differ from the per-sample reference
  kEarlyExitBroken  ///< ran past a confident exit, or stopped short without one
};
const char* verdict_name(Verdict v);

/// Checks one call's responses against the reference. `inputs[i]` is the
/// pool index of request i. Appends one verdict per request to `out`.
/// Labels and confidences must be bitwise equal to the reference at the
/// response's stages_run (the batched ≡ per-sample contract).
void check_call(const Reference& reference, std::span<const std::size_t> inputs,
                const std::vector<eugene::serving::InferenceResponse>* responses,
                double early_exit_confidence, std::vector<Verdict>& out);

/// Running totals of gate verdicts.
struct GateTally {
  std::size_t sent = 0;
  std::size_t errors = 0;
  std::vector<std::string> first_errors;  ///< up to a few, for the report

  void add(std::span<const Verdict> verdicts, const std::string& where);
  bool clean() const { return errors == 0; }
};

// ---- spans -------------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  const char* name = "";      ///< "<layer>.<call>", e.g. "core.infer_batch"
  double start_us = 0.0;      ///< since the recorder's origin
  double end_us = -1.0;
  std::uint32_t id = 0;       ///< 1-based
  std::uint32_t parent = 0;   ///< 0: root
  std::uint32_t thread = 0;   ///< small per-recorder thread number
  std::uint64_t request = 0;  ///< request id (first of the call), 0 if none
  std::uint64_t count = 0;    ///< requests covered by the span
};

/// In-memory span store. Spans nest per thread: a span begun while another
/// is open on the same thread becomes its child. Thread-safe.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now_us() const;
  /// Names the calling thread's track in the exported trace.
  void name_thread(const std::string& name);
  std::uint32_t begin(const char* name, std::uint64_t request = 0,
                      std::uint64_t count = 0);
  void end(std::uint32_t id);
  /// A named track that is not a thread (for spans with explicit times).
  std::uint32_t track(const std::string& name);
  /// A span with explicit times: a root span on `on_track`, or, with
  /// on_track == 0, a child of the calling thread's open span.
  void add(const char* name, double start_us, double end_us,
           std::uint64_t request, std::uint64_t count = 1,
           std::uint32_t on_track = 0);

  std::vector<Span> spans() const;
  std::vector<std::string> thread_names() const;

 private:
  std::uint32_t thread_number();
  std::uint32_t open_parent();

  std::uint64_t serial_;
  double origin_us_;
  mutable std::mutex mutex_;
  std::deque<Span> spans_;  // a deque never moves old spans while recording
  std::vector<std::string> thread_names_;
};

/// RAII span; a null recorder makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t request = 0,
             std::uint64_t count = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name, request, count) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// Self time of one span name: total duration minus the part covered by
/// the span's children, summed over every span of that name.
struct SelfTimeRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTimeRow> self_times(std::span<const Span> spans);

/// Chrome trace-event JSON: one complete ("X") event per span on its
/// thread's track, thread-name metadata, and `other_data_json` (a JSON
/// object literal) under "otherData".
std::string chrome_trace_json(std::span<const Span> spans,
                              std::span<const std::string> thread_names,
                              const std::string& other_data_json);

/// JSON string literal with escapes.
std::string json_string(const std::string& text);

/// Heap-allocation counter of the servebench binary (alloc_counter.cpp):
/// `true` zeroes the count and starts counting, `false` stops; both return
/// the allocations counted so far.
std::uint64_t count_allocations(bool on);

}  // namespace servebench
