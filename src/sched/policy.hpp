// Scheduling policies (paper Section III-C "Runtime Scheduling"):
//
//   GreedyUtilityPolicy  — RTDeepIoT-k: greedy max-differential-utility with a
//                          lookahead-k planned timeline
//   RoundRobinPolicy     — RR: stage-level round robin over services
//   FifoPolicy           — FIFO: run every stage of the earliest arrival
//   EarliestDeadlinePolicy — EDF extension (not in the paper's comparison,
//                          kept as an ablation baseline)
//
// A policy is consulted whenever a worker frees up; it picks which runnable
// task should execute its next stage.
#pragma once

#include <cstdint>
#include <optional>

#include "sched/utility.hpp"

namespace eugene::sched {

/// Picks the next task to advance by one stage.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Returns the task_id (from `runnable`) whose next stage should run, or
  /// std::nullopt to leave the worker idle. `runnable` contains arrived,
  /// unfinished, not-currently-executing tasks with stages remaining.
  virtual std::optional<std::size_t> pick(const std::vector<TaskView>& runnable,
                                          double now_ms) = 0;

  /// Clears internal state between runs (sched::Engine calls it).
  virtual void reset() {}
};

/// RTDeepIoT-k. Plans a timeline of k stage selections by greedy
/// differential utility, chaining the estimator over hypothetical
/// executions; replans when the timeline is exhausted or invalidated.
///
/// Lookahead semantics (paper §III): the planned timeline runs to exhaustion
/// before replanning, so observations revealed mid-plan are deliberately
/// not folded in. That staleness is what the k sweep in Fig. 4a measures.
///
/// A plan is one compare-scan over the runnable set per committed stage.
/// Histories are read in place, and each task's next-stage utility is cached
/// per (task_id, stages done) — sound under TaskView's append-only history
/// contract (sched/task.hpp) — so a pick predicts only for tasks whose
/// history grew since the last one. reset() and set_service_weights() clear
/// the cache.
class GreedyUtilityPolicy final : public SchedulingPolicy {
 public:
  /// `estimator` must outlive the policy. `lookahead` is the paper's k.
  GreedyUtilityPolicy(const UtilityEstimator& estimator, std::size_t lookahead);

  /// Multi-service-class extension (paper §V future work): utility of a
  /// stage is scaled by its service's weight, so latency-critical classes
  /// (e.g. an interactive chatbot) outbid tolerant ones. Services beyond
  /// the vector default to weight 1.
  void set_service_weights(std::vector<double> weights);

  /// Deadline feasibility: with a per-stage execution-time hint, the
  /// planner skips tasks whose next stage cannot finish before their
  /// deadline — "no utility is accrued for tasks that are not completed"
  /// (paper §III), so starting a doomed stage only wastes a worker.
  /// 0 disables the check (default).
  void set_stage_cost_hint(double stage_ms);

  std::optional<std::size_t> pick(const std::vector<TaskView>& runnable,
                                  double now_ms) override;
  void reset() override {
    timeline_.clear();
    ++cache_epoch_;
  }

 private:
  /// A task's next-stage forecast: the confidence the stage is predicted to
  /// reach, and its gain over the current confidence, service-weighted.
  struct Estimate {
    double predicted = 0.0;
    double utility = 0.0;
  };
  /// Direct-mapped cache slot, indexed by task_id modulo the cache size. A
  /// collision only costs a recomputation.
  struct CacheSlot {
    std::size_t task_id = 0;
    std::size_t stages_done = 0;
    std::uint64_t epoch = 0;  ///< valid iff equal to cache_epoch_ (never 0)
    Estimate estimate;
  };

  void plan(const std::vector<TaskView>& runnable, double now_ms);
  Estimate estimate(std::span<const double> conf, std::size_t service) const;

  double service_weight(std::size_t service) const {
    return service < service_weights_.size() ? service_weights_[service] : 1.0;
  }

  const UtilityEstimator& estimator_;
  std::size_t lookahead_;
  std::vector<double> service_weights_;
  double stage_cost_hint_ms_ = 0.0;
  std::vector<std::size_t> timeline_;  ///< planned task ids (at most k), in order
  std::vector<CacheSlot> cache_;      ///< power-of-two size, grown by plan()
  std::uint64_t cache_epoch_ = 1;     ///< bumped to invalidate every slot
};

/// Stage-level round robin across services.
class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  std::optional<std::size_t> pick(const std::vector<TaskView>& runnable,
                                  double now_ms) override;
  void reset() override { next_service_ = 0; }

 private:
  std::size_t next_service_ = 0;
};

/// First come, first served; every stage runs to the end.
class FifoPolicy final : public SchedulingPolicy {
 public:
  std::optional<std::size_t> pick(const std::vector<TaskView>& runnable,
                                  double now_ms) override;
};

/// Earliest absolute deadline first (ablation extension).
class EarliestDeadlinePolicy final : public SchedulingPolicy {
 public:
  std::optional<std::size_t> pick(const std::vector<TaskView>& runnable,
                                  double now_ms) override;
};

}  // namespace eugene::sched
