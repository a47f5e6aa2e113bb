// Concrete layers: convolution, dense, activations, normalization, dropout,
// pooling, and shape adapters.
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace eugene::nn {

/// 2-D convolution over a fixed-geometry CHW input (im2col + matmul).
/// Weights use He initialization, matching the ReLU networks it serves.
class Conv2d final : public Layer {
 public:
  Conv2d(tensor::Conv2dGeometry geometry, Rng& rng);

  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::vector<ParamRef> params() override;
  ParamValues param_values() const override { return {&weights_, &bias_}; }
  double flops() const override { return geometry_.flops(); }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  const tensor::Conv2dGeometry& geometry() const { return geometry_; }
  tensor::Tensor& weights() { return weights_; }
  tensor::Tensor& bias() { return bias_; }

 private:
  tensor::Conv2dGeometry geometry_;
  tensor::Tensor weights_;  ///< [C_out, C_in·k·k]
  tensor::Tensor bias_;     ///< [C_out]
  tensor::Tensor grad_weights_;
  tensor::Tensor grad_bias_;
};

/// Fully connected layer on rank-1 inputs: y = W·x + b.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::vector<ParamRef> params() override;
  ParamValues param_values() const override { return {&weights_, &bias_}; }
  double flops() const override {
    return 2.0 * static_cast<double>(in_features_) * static_cast<double>(out_features_);
  }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  tensor::Tensor& weights() { return weights_; }
  tensor::Tensor& bias() { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  tensor::Tensor weights_;  ///< [out, in]
  tensor::Tensor bias_;     ///< [out]
  tensor::Tensor grad_weights_;
  tensor::Tensor grad_bias_;
};

/// Rectified linear unit, any rank up to 4.
class ReLU final : public Layer {
 public:
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::string name() const override { return "relu"; }
  std::unique_ptr<Layer> clone() const override;
};

/// Per-channel instance normalization with learnable gain/bias.
///
/// Stands in for the paper's batch normalization: our pipeline is per-sample,
/// so batch statistics are unavailable; instance statistics provide the same
/// training stabilization for these model sizes (DESIGN.md §2).
class ChannelNorm final : public Layer {
 public:
  explicit ChannelNorm(std::size_t channels, float epsilon = 1e-5f);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::vector<ParamRef> params() override;
  ParamValues param_values() const override { return {&gain_, &bias_}; }
  std::string name() const override { return "channel_norm(" + std::to_string(channels_) + ")"; }
  std::unique_ptr<Layer> clone() const override;

  /// infer() with ResidualBlock's epilogue folded into the normalize pass:
  /// `shortcut` (input-shaped) added when set, then a ReLU when `relu`.
  /// Bitwise equal to infer() followed by the add and a ReLU layer.
  ActivationView infer_folded(const ActivationView& input, ScratchArena& arena,
                              bool relu, const float* shortcut = nullptr) const;

 private:
  std::size_t channels_;
  float epsilon_;
  tensor::Tensor gain_;  ///< [C]
  tensor::Tensor bias_;  ///< [C]
  tensor::Tensor grad_gain_;
  tensor::Tensor grad_bias_;
  tensor::Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

/// Inverted dropout. The training forward samples a mask; RDeepSense-style
/// MC-dropout calibration (StagedModel::run_stage_mc) calls it at inference
/// time to sample the predictive distribution.
class Dropout final : public Layer {
 public:
  Dropout(float drop_probability, std::uint64_t seed);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// Inference never drops: the identity.
  ActivationView infer(const ActivationView& input,
                       ScratchArena& /*arena*/) const override {
    return input;
  }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  float drop_probability() const { return p_; }

 private:
  float p_;
  std::uint64_t seed_;  ///< construction seed; clone() restarts from it
  Rng rng_;
  tensor::Tensor mask_;
};

/// Any rank up to 4 → flat vector. Its forward keeps only the input's shape.
class Flatten final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::string name() const override { return "flatten"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  tensor::Shape cached_shape_;
};

/// CHW → [C] by spatial averaging. Its forward keeps only the input's shape.
class GlobalAvgPool final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::string name() const override { return "global_avg_pool"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  tensor::Shape cached_shape_;
};

/// 2×2 max pooling, stride 2.
class MaxPool2 final : public Layer {
 public:
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::string name() const override { return "max_pool2"; }
  std::unique_ptr<Layer> clone() const override;
};

}  // namespace eugene::nn
