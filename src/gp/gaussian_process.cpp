#include "gp/gaussian_process.hpp"

#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/linalg.hpp"

namespace eugene::gp {

using tensor::Tensor;

double GaussianProcess1D::kernel(double a, double b, double length_scale) const {
  const double d = a - b;
  return signal_variance_ * std::exp(-d * d / (2.0 * length_scale * length_scale));
}

Tensor GaussianProcess1D::kernel_matrix(double length_scale) const {
  const std::size_t n = x_.size();
  Tensor k({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = kernel(x_[i], x_[j], length_scale);
      k.at(i, j) = static_cast<float>(v);
      k.at(j, i) = static_cast<float>(v);
    }
    k.at(i, i) += static_cast<float>(noise_variance_);
  }
  return k;
}

void GaussianProcess1D::fit(std::span<const double> x, std::span<const double> y,
                            const GpConfig& config) {
  EUGENE_REQUIRE(x.size() == y.size(), "GP fit: x/y size mismatch");
  EUGENE_REQUIRE(x.size() >= 2, "GP fit: need at least two points");
  EUGENE_REQUIRE(!config.length_scale_grid.empty(), "GP fit: empty length-scale grid");

  signal_variance_ = config.signal_variance;
  noise_variance_ = config.noise_variance;

  // Subsample large training sets: kernel solves are O(N³).
  if (x.size() > config.max_train_points) {
    std::vector<std::size_t> idx(x.size());
    std::iota(idx.begin(), idx.end(), 0);
    Rng rng(config.subsample_seed);
    rng.shuffle(idx);
    idx.resize(config.max_train_points);
    x_.clear();
    y_.clear();
    for (std::size_t i : idx) {
      x_.push_back(x[i]);
      y_.push_back(y[i]);
    }
  } else {
    x_.assign(x.begin(), x.end());
    y_.assign(y.begin(), y.end());
  }

  const std::size_t n = x_.size();
  double best_lml = -std::numeric_limits<double>::infinity();
  for (double ls : config.length_scale_grid) {
    const Tensor k = kernel_matrix(ls);
    Tensor chol;
    try {
      chol = tensor::cholesky(k);
    } catch (const Error&) {
      continue;  // numerically unsuitable length scale
    }
    const std::vector<double> tmp = tensor::solve_lower(chol, y_);
    const std::vector<double> alpha = tensor::solve_lower_transpose(chol, tmp);
    // log p(y|X) = −½ yᵀα − Σ log L_ii − (n/2)·log 2π
    double lml = 0.0;
    for (std::size_t i = 0; i < n; ++i) lml -= 0.5 * y_[i] * alpha[i];
    for (std::size_t i = 0; i < n; ++i) lml -= std::log(static_cast<double>(chol.at(i, i)));
    lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * 3.14159265358979);
    if (lml > best_lml) {
      best_lml = lml;
      length_scale_ = ls;
      chol_ = chol;
      alpha_ = alpha;
    }
  }
  EUGENE_CHECK(best_lml > -std::numeric_limits<double>::infinity())
      << "GP fit: no length scale produced a positive-definite kernel";
}

GpPrediction GaussianProcess1D::predict(double x) const {
  EUGENE_REQUIRE(fitted(), "GP predict before fit");
  const std::size_t n = x_.size();
  std::vector<double> kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(x, x_[i], length_scale_);

  GpPrediction out;
  for (std::size_t i = 0; i < n; ++i) out.mean += kstar[i] * alpha_[i];

  // var = k(x,x) − vᵀv with v = L⁻¹·k*.
  const std::vector<double> v = tensor::solve_lower(chol_, kstar);
  double var = kernel(x, x, length_scale_);
  for (double vi : v) var -= vi * vi;
  out.stddev = std::sqrt(std::max(var, 0.0));
  return out;
}

}  // namespace eugene::gp
