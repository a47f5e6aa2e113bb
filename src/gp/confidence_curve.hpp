// Dynamic confidence-curve model (paper Section III-B, Table III).
//
// For an L-stage model, fits one GP per ordered stage pair (l → l'), l < l',
// mapping "confidence observed at stage l" to "confidence expected at stage
// l'". Each GP is profiled into a piecewise-linear function for O(1) runtime
// queries by the scheduler and then dropped: the model keeps only the
// profiles and the training-set mean confidence per stage (the cold-start
// prior for tasks with no executed stages yet) — exactly what a snapshot
// persists, so a restored model equals the fitted one.
#pragma once

#include <functional>

#include "calib/evaluation.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/piecewise_linear.hpp"

namespace eugene::gp {

/// MAE and R² of a curve predictor on held-out data (Table III columns).
struct CurveFitQuality {
  double mae = 0.0;
  double r_squared = 0.0;
};

/// The exact GP (default GpConfig) from confidence at `from_stage` to
/// confidence at `to_stage` over the samples of `eval`. ConfidenceCurveModel
/// fits one per stage pair; Table III scores it against its profile.
GaussianProcess1D fit_pair_gp(const calib::StagedEvaluation& eval,
                              std::size_t from_stage, std::size_t to_stage);

/// Table III: MAE and R² of `predict` (confidence at `from_stage` →
/// confidence at `to_stage`, clamped to [0, 1]) on a held-out table.
CurveFitQuality evaluate_curve(const calib::StagedEvaluation& test_eval,
                               std::size_t from_stage, std::size_t to_stage,
                               const std::function<double(double)>& predict);

/// All (l → l') confidence curves for one staged model.
class ConfidenceCurveModel {
 public:
  /// M in the paper's {0, 1/M, …, 1} profiling grid.
  static constexpr std::size_t kGridSegments = 10;

  /// Fits each stage pair's GP from a *training* evaluation table
  /// (fit_pair_gp), profiles it on the kGridSegments grid, and drops it.
  void fit(const calib::StagedEvaluation& train_eval);

  std::size_t num_stages() const { return num_stages_; }
  bool fitted() const { return num_stages_ > 0; }

  /// Rebuilds the model from snapshotted artifacts: the piecewise-linear
  /// profile per ordered stage pair (pair_index order) and the per-stage
  /// cold-start priors. Validates counts and non-emptiness; throws
  /// eugene::InvalidArgument on mismatch.
  void restore(std::size_t num_stages, std::vector<PiecewiseLinear> approximations,
               std::vector<double> priors);

  /// The piecewise-linear profile for (from → to); what a snapshot persists.
  const PiecewiseLinear& approximation(std::size_t from_stage, std::size_t to_stage) const;

  /// Per-stage cold-start priors (parallel to stages).
  const std::vector<double>& priors() const { return priors_; }

  /// The profiled curve (from → to) at `confidence`, clamped to [0, 1].
  double predict(std::size_t from_stage, std::size_t to_stage, double confidence) const;

  /// Cold-start prior: mean training confidence at `stage` (paper: "At the
  /// beginning, predicted confidence ... is based on overall statistics
  /// computed from training data").
  double prior_confidence(std::size_t stage) const;

 private:
  std::size_t pair_index(std::size_t from_stage, std::size_t to_stage) const;

  std::size_t num_stages_ = 0;
  std::vector<PiecewiseLinear> approximations_;  ///< indexed by pair_index
  std::vector<double> priors_;
};

}  // namespace eugene::gp
