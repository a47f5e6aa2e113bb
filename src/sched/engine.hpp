// The request state machine behind every scheduler here (DESIGN.md §15): the
// paper's one loop of greedy planner, worker pool and latency daemon. It owns
// the task table, the runnable set the policy picks from, the deadline sweep,
// the early-exit test, the failure rule, the complete/expire/degrade
// transitions with their span events, the lifecycle gate and the results.
// Its two callers keep only how a stage runs:
// serving::InferenceServer::process_batch runs it on its peer workers, and
// simulate as an event on virtual time (Fig. 4). The engine itself is not
// thread-safe: process_batch's workers share it under one mutex.
#pragma once

#include <exception>
#include <optional>
#include <vector>

#include "common/lifecycle.hpp"
#include "common/trace.hpp"
#include "sched/policy.hpp"

namespace eugene::sched {

/// How a stage attempt failed.
enum class StageFailure : std::uint8_t {
  kFault,     ///< injected fault, crash or bug: a retry may succeed
  kRejected,  ///< InvalidArgument: the input does not fit the model, and a
              ///< deterministic stage will never accept it
};

/// The StageFailure of an exception a stage threw.
StageFailure classify_stage_error(const std::exception& error);

/// A task waits (not arrived, or shed), is runnable (its view is in the set
/// the policy picks from), is held (a worker runs its stage), or is
/// finished. A task's id is its position. The runnable set stays in task
/// order, so policy ties fall to task order.
class Engine {
 public:
  /// Resets `policy`, which must outlive the engine. `num_tasks` tasks of at
  /// most `max_stages` stages follow through add(). A task retries a failed
  /// stage at most `max_retries` times, and exits early once a confidence
  /// reaches `early_exit_confidence` (> 1 disables). `trace` may be null.
  Engine(SchedulingPolicy& policy, std::size_t num_tasks, std::size_t max_stages,
         std::size_t max_retries, double early_exit_confidence,
         telemetry::TraceRecorder* trace);
  /// Releases the lifecycle units admit() took.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Appends a waiting task. Times are on the caller's clock.
  void add(std::size_t service, double arrival_ms, double deadline_ms,
           std::size_t stages);

  /// Lifecycle gate (DESIGN.md §13), after the last add(): admits every task
  /// through `lifecycle` (null admits), or answers each with the typed drain
  /// response and returns false.
  bool admit(ServerLifecycle* lifecycle, double now_ms);

  /// Puts a waiting task in the runnable set (on arrival; complete() does
  /// the same for a held task with stages left).
  void enqueue(std::size_t task);

  /// Latency daemon: expires the runnable tasks past their deadline. A no-op
  /// until the clock reaches the earliest one.
  void expire_overdue(double now_ms);

  /// Asks the policy which runnable task advances next and stamps its first
  /// dispatch; nullopt when nothing is runnable or the policy idles. The
  /// view stays in the set: a caller that runs the stage on a worker calls
  /// hold() next.
  std::optional<std::size_t> next(double now_ms);

  /// Takes a picked task out of the runnable set while a worker runs it.
  void hold(std::size_t task);

  /// Records the task's next stage, with a kStageDone event from `worker`.
  /// A scheduled task then finishes at full depth or at the early-exit bar,
  /// or is runnable again; a waiting (shed) task only records.
  void complete(std::size_t task, std::size_t label, double confidence, double now_ms,
                std::uint32_t worker = 0);

  /// The failure rule: a task past its deadline expires, and a rejected
  /// input degrades. Otherwise the failure counts one retry, and the task
  /// degrades once its retries exceed the budget. Returns true when it may
  /// retry: the task keeps its state (a held task stays held), and the
  /// caller retries the stage at once on `worker`, which the kRetry event
  /// names.
  bool fail(std::size_t task, double now_ms, StageFailure failure,
            std::uint32_t worker = 0);

  /// Finish the task now with its best result so far, flagged expired or
  /// degraded.
  void expire(std::size_t task, double now_ms);
  void degrade(std::size_t task, double now_ms);

  std::size_t unfinished() const { return unfinished_; }
  bool finished(std::size_t task) const { return slots_[task].state == State::kFinished; }
  bool held(std::size_t task) const { return slots_[task].state == State::kHeld; }
  const TaskResult& result(std::size_t task) const { return results_[task]; }
  /// First dispatch minus arrival; nullopt if the task was never picked.
  std::optional<double> queue_delay_ms(std::size_t task) const;
  /// For the caller's own span events (null when untraced).
  const telemetry::SpanHandle& span(std::size_t task) const { return slots_[task].span; }
  /// Every task's answer, in task order. Ends the run.
  std::vector<TaskResult> take_results() { return std::move(results_); }

 private:
  enum class State : std::uint8_t { kWaiting, kRunnable, kHeld, kFinished };
  struct Slot {
    TaskView view;  ///< kept current; the runnable set holds copies
    State state = State::kWaiting;
    std::optional<double> first_dispatch_ms;
    telemetry::SpanHandle span;
  };

  std::vector<TaskView>::iterator position(std::size_t task);
  void take_out(std::size_t task);
  /// The one exit: `why` is kExpire, kDegrade or (a plain finish) kExit.
  void finish(std::size_t task, double now_ms, telemetry::TraceEventKind why);

  SchedulingPolicy& policy_;
  std::size_t max_stages_;
  std::size_t max_retries_;
  double early_exit_confidence_;
  telemetry::TraceRecorder* trace_;
  ServerLifecycle* lifecycle_ = nullptr;  ///< set once admit() took the units
  std::vector<Slot> slots_;
  std::vector<TaskResult> results_;
  std::vector<double> confidences_;   ///< max_stages_ per task; views point here
  std::vector<TaskView> runnable_;    ///< sorted by task id
  double next_deadline_;  ///< at most the earliest runnable deadline
  std::size_t unfinished_ = 0;
};

}  // namespace eugene::sched
