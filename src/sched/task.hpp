// Task model for Eugene's utility-maximizing inference scheduler
// (paper Section III).
//
// An inference task is one input (e.g. an image) owned by a *service* (one
// client stream). Its neural network is split into stages; executing stage s
// reveals that stage's (label, confidence). The scheduler sees only revealed
// confidences — the ground-truth playback in TaskSpec is simulator-private.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace eugene::sched {

/// What executing one stage of one task would reveal (precomputed from a
/// real model run; see DESIGN.md §5 "Real model, simulated time").
struct StageOutcome {
  std::size_t predicted = 0;  ///< label emitted by this stage's head
  bool correct = false;       ///< predicted == ground truth
  double confidence = 0.0;    ///< head's calibrated confidence
};

/// Immutable description of one inference task. Its id is its position in
/// the task set.
struct TaskSpec {
  std::size_t service = 0;    ///< owning client stream
  double arrival_ms = 0.0;    ///< absolute arrival time
  double deadline_ms = std::numeric_limits<double>::infinity();  ///< absolute
  std::vector<StageOutcome> stages;  ///< playback, one entry per model stage
};

/// Read-only task snapshot handed to scheduling policies. Exposes only what
/// the paper's scheduler can observe: progress, timing, and the confidences
/// of *executed* stages.
///
/// Append-only history contract: within one policy run (between two
/// SchedulingPolicy::reset() calls), task ids are unique and a task's
/// observed_confidence only grows — a stage's confidence is appended once,
/// when the stage completes, and revealed entries never change. So
/// (task_id, stages_done) identifies a task's history, and a policy may cache
/// anything derived from it (GreedyUtilityPolicy caches each task's
/// next-stage utility). sched::Engine keeps the contract for all its callers:
/// it resets the policy, numbers its tasks 0..n-1 and appends each
/// confidence once.
struct TaskView {
  std::size_t task_id = 0;
  std::size_t service = 0;
  std::size_t stages_done = 0;
  std::size_t total_stages = 0;
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;
  std::span<const double> observed_confidence;  ///< size == stages_done
};

/// Final answer for one task: what the engine reports when the task leaves
/// the system, and what the server returns per request
/// (serving::InferenceResponse is this type).
struct TaskResult {
  std::size_t label = 0;   ///< label of the last completed stage
  double confidence = 0.0; ///< that stage's confidence (0 with no stage run)
  std::size_t stages_run = 0;
  bool expired = false;    ///< deadline hit before full/confident completion
  bool degraded = false;   ///< retry budget spent, or the input rejected by
                           ///< the model; answered with the best result so far
  bool browned_out = false;  ///< always false: nothing sheds a request. Kept
                             ///< only because the serving benchmark reads it
  bool draining = false;   ///< rejected: the server is draining/stopped — the
                           ///< typed drain response; no stage ran, resubmit
                           ///< elsewhere (never combined with degraded)
  std::size_t retries = 0; ///< failed stage attempts charged to the retry budget
  double latency_ms = 0.0; ///< arrival to final answer
  std::uint64_t span_id = 0;  ///< trace span (0 when the run was untraced)
};

}  // namespace eugene::sched
