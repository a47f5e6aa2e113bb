// Live scheduling mode: real staged-model inference on a worker pool, with
// end-of-stage confidence reports flowing to the user-space scheduler over an
// in-memory channel — the in-process mirror of the paper's process pool +
// Linux named pipes + latency daemon (Section III). Each dispatch runs one
// stage of one task. run_live runs sched::Engine (sched/engine.hpp) on the
// pool: it owns the threads, channels, dispatches and worker health, and the
// engine owns the tasks, the policy loop and the failure rule.
//
// Differences from the paper's deployment, by design (DESIGN.md §2):
//   * workers are threads that share one const model (inference writes
//     nothing but each thread's own scratch arena), not processes, and
//     their reports are in-memory values, not bytes on a named pipe;
//   * a running stage cannot be interrupted mid-kernel, so the latency
//     daemon expires tasks at stage granularity: late results are discarded
//     and the task emits the last in-deadline result.
//
// Fault tolerance (DESIGN.md §8): the scheduler supervises its pool. A worker
// whose stage throws is marked dead (its thread exits, like a crashed worker
// process); a worker silent past worker_timeout_ms is abandoned. In both
// cases the in-flight task is re-queued to a healthy worker with bounded
// retries and exponential backoff + jitter, and — for crashes — the pool can
// respawn a replacement thread for the dead worker. A task whose retry
// budget runs out completes *degraded*: it answers with its best in-deadline
// result rather than failing. A stage that throws InvalidArgument rejects its
// input: the task degrades at once, and the worker lives and keeps serving.
//
// Overload control (DESIGN.md §11): every worker carries a CircuitBreaker
// scoring its error-rate and stage-latency EWMAs. Dispatch routes around
// open breakers (a sick worker stops eating retry budget) and prefers the
// healthiest free worker. With hedging enabled, a dispatch that outlives
// the observed stage-latency quantile gets a backup dispatch of the same
// stage on a second healthy worker; the first result wins (seq-stamped, so
// there is no result race) and the loser is cancelled cooperatively through
// the CancellationToken every dispatch carries — which also propagates the
// task's absolute deadline to the worker, so a worker never starts a stage
// whose result could not arrive in time.
//
// Chaos seams: `live.worker.crash` / `live.worker.slow` fire inside every
// worker loop; `live.worker.sick` fires only on worker 0 (the designated
// sick worker: arm kind=error for recoverable stage failures, kind=delay
// for a straggler); `hedge.lose.race` forces the primary dispatch to lose a
// hedge race; `health.breaker.trip` force-trips a breaker from record().
#pragma once

#include <limits>

#include "common/health.hpp"
#include "common/lifecycle.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/trace.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/staged_model.hpp"
#include "sched/policy.hpp"

namespace eugene::sched {

/// Live-mode knobs.
struct LiveConfig {
  double deadline_ms = std::numeric_limits<double>::infinity();  ///< per task
  double early_exit_confidence = 2.0;  ///< >1 disables early exit
  std::size_t lookahead = 1;           ///< RTDeepIoT k

  // Worker supervision (DESIGN.md §8 "Failure model").
  std::size_t max_retries = 2;   ///< per-task re-dispatches after worker failure
  double worker_timeout_ms =
      std::numeric_limits<double>::infinity();  ///< silence → worker is dead
  std::size_t max_respawns = 0;  ///< replacement workers spawned after crashes
  RetryPolicy retry;             ///< backoff shape between re-dispatches

  // Health-scored routing (DESIGN.md §11): per-worker circuit breakers.
  // health.enabled=false falls back to PR2's route-anywhere behavior.
  HealthConfig health;

  // Hedged dispatch: when a dispatch has been out longer than the
  // hedge_quantile of recent dispatch latencies (never less than
  // hedge_min_ms), issue one backup dispatch of the same stage to a second
  // healthy worker. Needs hedge_min_samples observations before any hedge.
  bool hedging = false;
  double hedge_quantile = 0.95;
  double hedge_min_ms = 1.0;
  std::size_t hedge_min_samples = 8;

  // Observability (DESIGN.md §12). `trace` records one span per task
  // (admission → dispatch/hedge/cancel/result → exit); null disables tracing
  // at the cost of one branch per event site. `metrics` receives the
  // LiveStats counters and per-stage latency histograms
  // (sched.stage_latency_ms.stage<N>); null disables, the default is the
  // process-wide registry behind EugeneService::metrics_text().
  telemetry::TraceRecorder* trace = nullptr;
  telemetry::MetricsRegistry* metrics = &telemetry::MetricsRegistry::global();

  // Lifecycle gate (DESIGN.md §13). When set, the batch is admitted through
  // ServerLifecycle::try_admit before any worker starts: a draining server
  // answers every task with draining=true (typed rejection, zero stages run)
  // and the in-flight count covers the whole run_live call, so
  // begin_drain() waits for in-flight batches to finish. Null = always
  // admit.
  eugene::ServerLifecycle* lifecycle = nullptr;
};

/// Fault-handling counters for one run_live call. Chaos tests reconcile
/// these against the failpoint fire counts.
struct LiveStats {
  std::size_t worker_crashes = 0;   ///< stages that threw inside a worker
  std::size_t worker_timeouts = 0;  ///< workers abandoned for silence
  std::size_t respawns = 0;         ///< replacement workers started
  /// Failed stage attempts charged to the tasks' retry budgets: the sum of
  /// TaskResult::retries. Every failure counts, the one that degrades a task
  /// included, except a failure past the task's deadline (it expires the
  /// task), a rejected input, and a failure while a hedge twin still races.
  std::size_t retries = 0;
  std::size_t degraded = 0;         ///< tasks finished degraded (budget spent,
                                    ///< input rejected, or every worker dead)
  std::size_t expired = 0;          ///< tasks finished by the latency daemon

  // Overload-control counters (DESIGN.md §11).
  std::size_t worker_errors = 0;    ///< recoverable stage errors (sick worker)
  std::size_t breaker_trips = 0;    ///< breaker transitions to open
  std::size_t breaker_skips = 0;    ///< dispatch scans routed around an open breaker
  std::size_t hedges_issued = 0;    ///< backup dispatches sent
  std::size_t hedges_won = 0;       ///< races the backup dispatch won
  std::size_t cancelled = 0;        ///< dispatches cancelled cooperatively
                                    ///< (hedge losers + deadline skips)
};

/// Runs a batch of inputs through `model` on a pool of `workers` threads,
/// scheduling stage executions with RTDeepIoT's greedy utility policy.
///
/// Every worker runs stages of the one shared `model`; it must outlive the
/// call. `curves` drives the utility estimates. Fills `*stats` with
/// supervision counters when non-null.
///
/// Robustness contract: every input receives a well-formed TaskResult
/// (complete, expired, or degraded), in input order, and no worker exception
/// escapes, for any combination of worker crashes, stalls, and deadlines.
std::vector<TaskResult> run_live(const nn::StagedModel& model, std::size_t workers,
                                 const gp::ConfidenceCurveModel& curves,
                                 const std::vector<tensor::Tensor>& inputs,
                                 const LiveConfig& config, LiveStats* stats = nullptr);

}  // namespace eugene::sched
