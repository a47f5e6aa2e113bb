// Utility estimation: "the utility of executing a stage is the expected
// increase in output confidence" (paper Section III-B).
//
// Estimators predict the confidence a task would reach after its next stage.
// The greedy planner chains them: hypothetically executed stages feed
// predicted confidences back in as if observed.
#pragma once

#include <span>

#include "gp/confidence_curve.hpp"
#include "sched/task.hpp"

namespace eugene::sched {

/// Interface for confidence forecasting.
class UtilityEstimator {
 public:
  virtual ~UtilityEstimator() = default;

  /// Predicted confidence after executing stage `next_stage`, given the
  /// confidences of executed stages 0..conf_so_far.size()-1 (observed or,
  /// during lookahead planning, hypothesized). Requires
  /// conf_so_far.size() <= next_stage; an empty history yields the
  /// cold-start prior. Multi-hop prediction (e.g. the paper's GP1→3) is
  /// supported: the estimator projects from the last available stage.
  virtual double predict_confidence_after(std::span<const double> conf_so_far,
                                          std::size_t next_stage) const = 0;
};

/// RTDeepIoT's estimator: piecewise-linear-approximated Gaussian-process
/// regression from the last executed stage's confidence, with the
/// training-set prior as the cold start.
class GpUtilityEstimator final : public UtilityEstimator {
 public:
  /// `curves` must outlive the estimator.
  explicit GpUtilityEstimator(const gp::ConfidenceCurveModel& curves);

  double predict_confidence_after(std::span<const double> conf_so_far,
                                  std::size_t next_stage) const override;

 private:
  const gp::ConfidenceCurveModel& curves_;
};

/// RTDeepIoT-DC's estimator: assumes confidence keeps increasing with the
/// same slope as in the most recent executed stage.
class ConstantSlopeEstimator final : public UtilityEstimator {
 public:
  /// `stage_priors` are mean training confidences per stage (cold start);
  /// `baseline_confidence` is the pre-execution confidence (1/num_classes).
  ConstantSlopeEstimator(std::vector<double> stage_priors, double baseline_confidence);

  double predict_confidence_after(std::span<const double> conf_so_far,
                                  std::size_t next_stage) const override;

 private:
  std::vector<double> stage_priors_;
  double baseline_;
};

}  // namespace eugene::sched
