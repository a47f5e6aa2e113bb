// Residual block: the building unit of the paper's three-stage ResNet
// (Fig. 3): out = relu(x + norm(conv(relu(norm(conv(x)))))).
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace eugene::nn {

/// Two 3×3 convolutions with channel normalization and an identity shortcut.
/// Input and output channel counts are equal; stage-boundary channel changes
/// are handled by transition convolutions in the staged-model builder.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t channels, std::size_t height, std::size_t width, Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  ActivationView infer(const ActivationView& input, ScratchArena& arena) const override;
  std::vector<ParamRef> params() override;
  double flops() const override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  /// Empty shell filled member-by-member by clone() (height/width are not
  /// stored, so a clone cannot rebuild through the public constructor).
  ResidualBlock() = default;

  std::size_t channels_ = 0;
  ChildPtr<Conv2d> conv1_;
  ChildPtr<ChannelNorm> norm1_;
  ChildPtr<ReLU> relu1_;
  ChildPtr<Conv2d> conv2_;
  ChildPtr<ChannelNorm> norm2_;
  tensor::Tensor pre_activation_;  ///< x + f(x), cached for the final ReLU grad
};

}  // namespace eugene::nn
