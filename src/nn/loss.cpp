#include "nn/loss.hpp"

#include <cmath>

#include "common/stats.hpp"

namespace eugene::nn {

using tensor::Tensor;

std::vector<float> softmax_probs(const Tensor& logits) {
  EUGENE_REQUIRE(logits.rank() == 1, "softmax_probs: expected rank-1 logits");
  return softmax(logits.data());
}

LossResult cross_entropy_with_entropy_reg(const Tensor& logits, std::size_t label,
                                          double alpha) {
  const std::size_t n = logits.numel();
  EUGENE_REQUIRE(label < n, "cross_entropy: label out of range");
  const std::vector<float> p = softmax_probs(logits);

  const double eps = 1e-12;
  const double ce = -std::log(static_cast<double>(p[label]) + eps);
  const double h = entropy(p);

  LossResult result;
  result.value = ce + alpha * h;
  result.grad_logits = Tensor({n});
  float* g = result.grad_logits.raw();
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = p[j];
    const double grad_ce = pj - (j == label ? 1.0 : 0.0);
    const double grad_h = -pj * (std::log(pj + eps) + h);
    g[j] = static_cast<float>(grad_ce + alpha * grad_h);
  }
  return result;
}

}  // namespace eugene::nn
