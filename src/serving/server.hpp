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
// and never lets a stage exception escape. Overload is handled by an
// admission controller that sheds excess requests to the earliest confident
// exit (the imprecise-computation answer: a degraded-but-valid result beats
// a rejection); a stage that throws is retried a bounded number of times
// before the request degrades, and a stage that rejects the input
// (InvalidArgument) degrades the request at once.
//
// process_batch runs sched::Engine (sched/engine.hpp) on `workers` peer
// workers, the calling thread first (the paper's worker pool, §III): each
// worker locks the engine to pick a request, runs that request's next stage
// unlocked, and relocks to record it, so the policy is consulted whenever a
// worker frees up. The server owns admission, shedding and the brown-out
// controller; the engine owns the per-request state.
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

/// Adaptive admission (brown-out) knobs, DESIGN.md §11.
///
/// The controller watches the admission-to-first-stage queue delay of each
/// batch against a class-weighted setpoint and keeps a persistent brown-out
/// *level*. Each level progressively lowers the effective admission capacity,
/// shed-confidence bar, and shed stage budget, so an overloaded server sheds
/// more work to cheaper answers instead of queueing itself past every
/// deadline. Recovery is hysteretic: the level only steps down when the
/// measured delay falls well below the setpoint (recover_ratio), preventing
/// flapping at the boundary. The static admission_capacity stays the hard
/// ceiling — brown-out only ever shrinks the effective capacity.
struct BrownoutConfig {
  bool enabled = true;
  std::size_t max_level = 3;
  /// Setpoint for a finite-deadline class: fraction of its deadline the
  /// queue delay may consume before escalation.
  double setpoint_fraction = 0.25;
  /// Absolute setpoint (ms) for classes with an infinite deadline.
  double setpoint_ms = 50.0;
  /// Fraction of the base capacity removed per level.
  double capacity_step = 0.25;
  /// Amount shed_confidence drops per level (cheaper shed answers).
  double confidence_step = 0.1;
  /// Delay/setpoint ratio below which the level steps back down.
  double recover_ratio = 0.5;
};

/// Server knobs.
struct ServerConfig {
  std::vector<ServiceClassConfig> classes = {{}};
  double early_exit_confidence = 0.92;  ///< skip remaining stages above this
  std::size_t lookahead = 1;            ///< RTDeepIoT k

  // Graceful degradation (DESIGN.md §8 "Failure model").
  std::size_t admission_capacity = 0;   ///< >0: hard ceiling; beyond it → shed
  double shed_confidence = 0.0;         ///< shed requests stop at this confidence
  std::size_t shed_max_stages = 1;      ///< stage budget for a shed request
  std::size_t max_stage_retries = 2;    ///< re-runs of a throwing stage per request

  /// Peer workers per process_batch call (>= 1): the calling thread plus
  /// min(workers, admitted requests) - 1 threads that start with the call
  /// and join before it returns. All of them share the one const model.
  std::size_t workers = 1;

  // Adaptive admission (DESIGN.md §11 "Overload & health model").
  BrownoutConfig brownout;

  // Observability (DESIGN.md §12). `trace` records one span per request
  // (admission → brownout/shed decision → stage results → exit); null
  // disables tracing. `metrics` receives serving.* counters, the
  // serving.brownout.level gauge, and per-stage latency histograms; null
  // disables, the default is the process-wide registry behind
  // EugeneService::metrics_text().
  telemetry::TraceRecorder* trace = nullptr;
  telemetry::MetricsRegistry* metrics = &telemetry::MetricsRegistry::global();

  // Lifecycle gate (DESIGN.md §13). When set, every batch is admitted
  // through ServerLifecycle::try_admit *before* any other admission logic
  // (brown-out included): a draining server answers the whole batch with
  // draining=true responses — a typed rejection, never a shed. Null means
  // "always admit" (standalone tests and benches).
  ServerLifecycle* lifecycle = nullptr;
};

/// Schedules a batch of concurrent requests over one model instance,
/// interleaving real stage executions by greedy weighted utility. Wall-clock
/// deadlines are enforced at stage granularity (a request past its class
/// deadline stops accruing stages and answers with its best result so far).
class InferenceServer {
 public:
  /// `entry` must have stages and fitted curves, and must outlive the
  /// server.
  InferenceServer(const ModelEntry& entry, ServerConfig config);

  /// Processes all requests as one concurrent batch. Requests admitted past
  /// the effective capacity (the static admission_capacity lowered by the
  /// current brown-out level) are shed: they answer from the earliest
  /// confident exit and come back flagged degraded=true — and browned_out
  /// when the brown-out level, not the static ceiling, shed them. Each call
  /// also feeds the measured queue delay back into the brown-out controller.
  /// Chaos seam: `admit.brownout.force` escalates the level at batch start.
  std::vector<InferenceResponse> process_batch(const std::vector<InferenceRequest>& requests);

  const ServerConfig& config() const { return config_; }

  /// Current brown-out level (0 = full service). Persistent across batches.
  std::size_t brownout_level() const { return brownout_level_; }

 private:
  const ModelEntry& entry_;
  ServerConfig config_;
  std::size_t brownout_level_ = 0;
};

}  // namespace eugene::serving
