// Discrete-event simulator for the scheduling experiments (Fig. 4): the
// sched::Engine state machine the server runs, driven on virtual time.
//
// The simulator owns a pool of homogeneous workers, the event queue, the
// fixed per-stage durations and the outcome playback; the engine owns the
// tasks and the policy loop. Per the paper's architecture: stages run to
// completion once dispatched (stage-granularity preemption), and a latency
// daemon kills tasks whose deadline expires — including aborting a stage
// mid-execution, wasting that worker time.
#pragma once

#include "sched/policy.hpp"

namespace eugene::sched {

/// Simulator knobs.
struct SimulationConfig {
  std::size_t num_workers = 4;
  /// Tasks whose revealed confidence reaches this value complete early
  /// ("once a high-enough confidence is reported, skip remaining stages",
  /// paper §II-D). Values > 1 disable early exit.
  double early_exit_confidence = 2.0;
};

/// Outcome counters for one service (client stream).
struct ServiceMetrics {
  std::size_t tasks = 0;
  std::size_t correct = 0;            ///< final emitted label was right
  std::size_t completed_all_stages = 0;
  std::size_t early_exits = 0;
  std::size_t expired_with_result = 0;   ///< deadline hit after >=1 stage
  std::size_t expired_without_result = 0;  ///< deadline hit with 0 stages
  std::size_t stages_executed = 0;

  double accuracy() const {
    return tasks == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(tasks);
  }
};

/// Aggregate simulation outputs.
struct SimulationResult {
  std::vector<ServiceMetrics> services;
  std::size_t aborted_stage_executions = 0;  ///< stages killed mid-run
  double makespan_ms = 0.0;
  std::vector<std::size_t> exit_stage_histogram;  ///< index s: tasks whose last
                                                  ///< executed stage was s; [0] = none

  /// Mean of per-service accuracies (Fig. 4a/4b y-axis).
  double mean_accuracy() const;
  /// Population std of per-service accuracies (Fig. 4c y-axis; fairness).
  double std_accuracy() const;
  /// Mean executed stages per task.
  double mean_stages_per_task() const;
};

/// Runs `policy` over `tasks` and returns the metrics. The policy is reset()
/// before the run. A task's id is its position. Stage s of every task takes
/// exactly `stage_ms[s]` milliseconds, so `stage_ms` must cover the maximum
/// stage count in the task set.
SimulationResult simulate(const std::vector<TaskSpec>& tasks, SchedulingPolicy& policy,
                          const std::vector<double>& stage_ms,
                          const SimulationConfig& config);

}  // namespace eugene::sched
