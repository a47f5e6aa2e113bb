// The run-time inference service (paper §II-E): accepts client data,
// schedules stage executions across concurrent requests with the
// utility-maximizing policy, enforces per-class latency constraints, and
// returns (label, confidence) with early exit on high confidence.
//
// Includes the paper's §V extension: multiple *service classes* with
// distinct deadlines and utility weights (an interactive chatbot vs a
// tolerant surveillance camera).
//
// Robustness contract (DESIGN.md §8): process_batch always returns one
// well-formed response per request — complete, expired, or *degraded* —
// and never lets a stage exception escape. Overload is the scheduler's job
// (DESIGN.md §11): the planner spends workers on the stages with the highest
// predicted utility gain, and the latency daemon ends a late request with its
// best answer so far (the imprecise-computation answer). A stage that throws
// is retried a bounded number of times before the request degrades, and a
// stage that rejects the input (InvalidArgument) degrades the request at
// once.
//
// process_batch runs sched::Engine (sched/engine.hpp) on `workers` peer
// workers, the calling thread first (the paper's worker pool, §III): each
// worker locks the engine to pick a request, runs that request's next stage
// unlocked, and relocks to record it, so the policy is consulted whenever a
// worker frees up. Every admitted request runs through that one loop; the
// engine owns the per-request state.
#pragma once

#include <limits>

#include "common/lifecycle.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sched/task.hpp"
#include "serving/registry.hpp"

namespace eugene::serving {

/// A client-facing QoS class.
struct ServiceClassConfig {
  std::string name = "default";
  double deadline_ms = std::numeric_limits<double>::infinity();
  double utility_weight = 1.0;  ///< scales the scheduler's utility for this class
};

/// One inference request.
struct InferenceRequest {
  tensor::Tensor input;
  std::size_t service_class = 0;
};

/// One inference response: the scheduler's per-task answer.
using InferenceResponse = sched::TaskResult;

/// Server knobs.
struct ServerConfig {
  std::vector<ServiceClassConfig> classes = {{}};
  double early_exit_confidence = 0.92;  ///< skip remaining stages above this
  std::size_t lookahead = 1;            ///< RTDeepIoT k

  // Graceful degradation (DESIGN.md §8 "Failure model").
  std::size_t max_stage_retries = 2;    ///< re-runs of a throwing stage per request

  /// Peer workers per process_batch call (>= 1): the calling thread plus
  /// min(workers, batch size) - 1 threads that start with the call
  /// and join before it returns. All of them share the one const model.
  std::size_t workers = 1;

  // Observability (DESIGN.md §12). `trace` records one span per request
  // (admission → stage results → exit); null disables tracing. `metrics`
  // receives serving.* counters and per-stage latency histograms; null
  // disables, the default is the process-wide registry behind
  // EugeneService::metrics_text().
  telemetry::TraceRecorder* trace = nullptr;
  telemetry::MetricsRegistry* metrics = &telemetry::MetricsRegistry::global();

  // Lifecycle gate (DESIGN.md §13). When set, every batch is admitted
  // through ServerLifecycle::try_admit before any stage runs: a draining
  // server answers the whole batch with draining=true responses — a typed
  // rejection, never a degraded answer. Null means "always admit"
  // (standalone tests and benches).
  ServerLifecycle* lifecycle = nullptr;
};

/// Schedules a batch of concurrent requests over one model instance,
/// interleaving real stage executions by greedy weighted utility. Wall-clock
/// deadlines are enforced at stage granularity (a request past its class
/// deadline stops accruing stages and answers with its best result so far).
/// The server keeps no state between calls.
class InferenceServer {
 public:
  /// `entry` must have stages and fitted curves, and must outlive the
  /// server.
  InferenceServer(const ModelEntry& entry, ServerConfig config);

  /// Processes all requests as one concurrent batch: the lifecycle gate
  /// admits the whole batch or none of it, and every admitted request is
  /// scheduled stage by stage until it completes, exits early, expires, or
  /// degrades. Chaos seam: `serving.stage.crash` makes a stage throw.
  std::vector<InferenceResponse> process_batch(
      const std::vector<InferenceRequest>& requests) const;

 private:
  const ModelEntry& entry_;
  ServerConfig config_;
};

}  // namespace eugene::serving
