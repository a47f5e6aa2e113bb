// Small numeric helpers used across calibration, scheduling, and evaluation.
#pragma once

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace eugene {

/// Arithmetic mean; requires a non-empty range.
inline double mean(std::span<const double> xs) {
  EUGENE_REQUIRE(!xs.empty(), "mean of empty range");
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

/// Population variance (divides by N); requires a non-empty range.
///
/// Welford's single-pass update: one walk over the range (the previous form
/// walked it twice via mean()) and numerically stable for data with a large
/// common offset, where accumulating (x - m)² after a separately rounded
/// mean loses precision. Stats.VarianceWelfordMatchesTwoPass pins agreement
/// with the two-pass form within eps on ordinary data and exactness on
/// offset data.
inline double variance(std::span<const double> xs) {
  EUGENE_REQUIRE(!xs.empty(), "variance of empty range");
  double m = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    ++n;
    const double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
  }
  return m2 / static_cast<double>(xs.size());
}

/// Population standard deviation.
inline double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

/// Index of the largest element; ties resolve to the first maximum.
inline std::size_t argmax(std::span<const float> xs) {
  EUGENE_REQUIRE(!xs.empty(), "argmax of empty range");
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

/// Numerically stable softmax over a logit vector, written into `out` (the
/// same size; allocates nothing).
inline void softmax_into(std::span<const float> logits, std::span<float> out) {
  EUGENE_REQUIRE(!logits.empty(), "softmax of empty range");
  EUGENE_REQUIRE(out.size() == logits.size(), "softmax: output size mismatch");
  float max_logit = logits[0];
  for (float v : logits) max_logit = std::max(max_logit, v);
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - max_logit);
    sum += out[i];
  }
  for (float& v : out) v = static_cast<float>(v / sum);
}

/// Numerically stable softmax over a logit vector.
inline std::vector<float> softmax(std::span<const float> logits) {
  std::vector<float> out(logits.size());
  softmax_into(logits, out);
  return out;
}

/// Shannon entropy (nats) of a probability vector. Zero entries contribute 0.
inline double entropy(std::span<const float> probs) {
  double h = 0.0;
  for (float p : probs)
    if (p > 0.0f) h -= static_cast<double>(p) * std::log(static_cast<double>(p));
  return h;
}

/// Clamps x into [lo, hi].
inline double clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Coefficient of determination of predictions vs. ground truth.
/// Returns 1 for a perfect fit, 0 for predicting the mean, negative for worse.
inline double r_squared(std::span<const double> truth, std::span<const double> pred) {
  EUGENE_REQUIRE(truth.size() == pred.size(), "r_squared: size mismatch");
  EUGENE_REQUIRE(!truth.empty(), "r_squared: empty ranges");
  const double m = mean(truth);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

/// Mean absolute error of predictions vs. ground truth.
inline double mean_absolute_error(std::span<const double> truth,
                                  std::span<const double> pred) {
  EUGENE_REQUIRE(truth.size() == pred.size(), "mae: size mismatch");
  EUGENE_REQUIRE(!truth.empty(), "mae: empty ranges");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) acc += std::abs(truth[i] - pred[i]);
  return acc / static_cast<double>(truth.size());
}

/// Incremental mean/variance accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }

  /// Population variance; zero until two samples are seen.
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
  }

  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace eugene
