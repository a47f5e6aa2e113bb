// One-dimensional Gaussian-process regression with an RBF kernel.
//
// The paper predicts a task's confidence at future stages from confidence at
// executed stages with GP regression (Section III-B), chosen because it is a
// strong regressor whose Gaussian posterior yields both a mean and a
// confidence interval. Inputs here are bounded confidences in [0, 1].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace eugene::gp {

/// GP hyperparameters and fitting knobs.
struct GpConfig {
  double signal_variance = 1.0;   ///< σ_f² of the RBF kernel
  double noise_variance = 0.01;   ///< σ_n² added to the diagonal
  /// Candidate RBF length scales; the one maximizing the log marginal
  /// likelihood is kept.
  std::vector<double> length_scale_grid = {0.05, 0.1, 0.2, 0.4};
  /// Training sets larger than this are subsampled (GP fitting is O(N³)).
  std::size_t max_train_points = 400;
  std::uint64_t subsample_seed = 5;
};

/// Posterior at one query point.
struct GpPrediction {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Exact GP regression on scalar inputs.
class GaussianProcess1D {
 public:
  /// Fits the GP to (x, y) pairs, selecting the best length scale from the
  /// config grid by log marginal likelihood.
  void fit(std::span<const double> x, std::span<const double> y,
           const GpConfig& config = {});

  /// Posterior mean and standard deviation at `x`. Requires fit().
  GpPrediction predict(double x) const;

  bool fitted() const { return !x_.empty(); }
  double length_scale() const { return length_scale_; }
  std::size_t train_size() const { return x_.size(); }

 private:
  /// Builds K + σ_n²·I for the stored points at a given length scale.
  tensor::Tensor kernel_matrix(double length_scale) const;
  double kernel(double a, double b, double length_scale) const;

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> alpha_;  ///< K⁻¹·y
  tensor::Tensor chol_;        ///< Cholesky factor of K
  double length_scale_ = 0.2;
  double signal_variance_ = 1.0;
  double noise_variance_ = 0.01;
};

}  // namespace eugene::gp
