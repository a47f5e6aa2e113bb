// Portable channel-norm and pooling bodies: one plane at a time.
#include <cmath>

#include "tensor/plane_kernel.hpp"

namespace eugene::tensor::detail {
namespace {

// Σ term(x[i]) in double over eight lanes, element i joining lane i % 8,
// combined in the fixed order. The loops vectorize at the baseline ISA.
template <class Term>
double lane_total(const float* x, std::size_t hw, Term term) {
  double lane[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= hw; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lane[l] += term(x[i + l]);
  for (; i < hw; ++i) lane[i % 8] += term(x[i]);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void channel_norm(const ChannelNormPass& p) {
  const double n = static_cast<double>(p.hw);
  for (std::size_t c = 0; c < p.channels; ++c) {
    const float* xc = p.x + c * p.hw;
    const double mean = lane_total(xc, p.hw, [](double v) { return v; }) / n;
    const double var =
        lane_total(xc, p.hw, [mean](double v) { return (v - mean) * (v - mean); }) / n;
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + p.epsilon));
    if (p.inv_std != nullptr) p.inv_std[c] = inv_std;
    for (std::size_t i = c * p.hw; i < (c + 1) * p.hw; ++i) {
      const float xhat = (p.x[i] - static_cast<float>(mean)) * inv_std;
      if (p.xhat != nullptr) p.xhat[i] = xhat;
      float y = p.gain[c] * xhat + p.bias[c];
      if (p.shortcut != nullptr) y += p.shortcut[i];
      if (p.relu && !(y > 0.0f)) y = 0.0f;
      p.out[i] = y;
    }
  }
}

void global_avg_pool(const float* x, std::size_t channels, std::size_t hw, float* out) {
  for (std::size_t c = 0; c < channels; ++c) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += x[c * hw + i];
    out[c] = acc / static_cast<float>(hw);
  }
}

void max_pool_2x2(const float* x, std::size_t channels, std::size_t height,
                  std::size_t width, float* out) {
  const std::size_t oh = height / 2, ow = width / 2;
  for (std::size_t row = 0; row < channels * oh; ++row)
    for (std::size_t xo = 0; xo < ow; ++xo) {
      const float* w = x + (row / oh * height + row % oh * 2) * width + 2 * xo;
      float best = w[0];
      for (const float v : {w[1], w[width], w[width + 1]})
        if (v > best) best = v;
      out[row * ow + xo] = best;
    }
}

}  // namespace

PlaneKernels scalar_plane_kernels() {
  return {&channel_norm, &global_avg_pool, &max_pool_2x2};
}

}  // namespace eugene::tensor::detail
