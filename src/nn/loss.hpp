// Losses. The centerpiece is the paper's Eq. 4 entropy-regularized
// cross-entropy used to calibrate confidence:
//
//   L = CE(p, y) + α · H(p)
//
// where α < 0 raises confidence (when the network underestimates) and α > 0
// lowers it (when it overestimates).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace eugene::nn {

/// Value and logit-gradient of a classification loss on one sample.
struct LossResult {
  double value = 0.0;
  tensor::Tensor grad_logits;  ///< dL/dlogits, same shape as the logits
};

/// Softmax cross-entropy with optional entropy regularization (paper Eq. 4).
///
/// Gradient derivation: with p = softmax(z),
///   dCE/dz = p − onehot(y)
///   dH/dz_j = −p_j · (log p_j + H(p))
/// so dL/dz = (p − y) + α · dH/dz.
LossResult cross_entropy_with_entropy_reg(const tensor::Tensor& logits,
                                          std::size_t label, double alpha = 0.0);

/// Softmax probabilities of a logit tensor (rank-1).
std::vector<float> softmax_probs(const tensor::Tensor& logits);

}  // namespace eugene::nn
