#include "nn/residual.hpp"

namespace eugene::nn {

using tensor::Tensor;

ResidualBlock::ResidualBlock(std::size_t channels, std::size_t height, std::size_t width,
                             Rng& rng)
    : channels_(channels) {
  tensor::Conv2dGeometry g;
  g.in_channels = channels;
  g.out_channels = channels;
  g.in_height = height;
  g.in_width = width;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  conv1_ = std::make_unique<Conv2d>(g, rng);
  norm1_ = std::make_unique<ChannelNorm>(channels);
  relu1_ = std::make_unique<ReLU>();
  conv2_ = std::make_unique<Conv2d>(g, rng);
  norm2_ = std::make_unique<ChannelNorm>(channels);
}

Tensor ResidualBlock::forward(const Tensor& input) {
  Tensor f = norm1_->forward(conv1_->forward(input));
  f = relu1_->forward(f);
  f = norm2_->forward(conv2_->forward(f));
  f += input;  // identity shortcut
  pre_activation_ = f;
  // Final ReLU applied in place: `f` is this block's own intermediate.
  float* p = f.raw();
  for (std::size_t i = 0; i < f.numel(); ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  return f;
}

ActivationView ResidualBlock::infer(const ActivationView& input,
                                    ScratchArena& arena) const {
  ActivationView f = conv1_->infer(input, arena);
  f = norm1_->infer(f, arena);
  f = relu1_->infer(f, arena);
  f = conv2_->infer(f, arena);
  f = norm2_->infer(f, arena);
  EUGENE_REQUIRE(f.numel() == input.numel(),
                 "ResidualBlock::infer: shape drift through the block");
  // Shortcut add + final ReLU fused in place over norm2's arena output.
  float* p = f.data;
  const float* x = input.data;
  const std::size_t n = f.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = p[i] + x[i];
    p[i] = v > 0.0f ? v : 0.0f;
  }
  return f;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  EUGENE_REQUIRE(grad_output.same_shape(pre_activation_),
                 "ResidualBlock::backward: shape mismatch");
  // Final ReLU gradient.
  Tensor g(pre_activation_.shape());
  const float* go = grad_output.raw();
  const float* pre = pre_activation_.raw();
  float* gp = g.raw();
  for (std::size_t i = 0; i < g.numel(); ++i) gp[i] = pre[i] > 0.0f ? go[i] : 0.0f;

  // Residual path: norm2 <- conv2 <- relu1 <- norm1 <- conv1.
  Tensor gf = norm2_->backward(g);
  gf = conv2_->backward(gf);
  gf = relu1_->backward(gf);
  gf = norm1_->backward(gf);
  gf = conv1_->backward(gf);

  gf += g;  // identity shortcut gradient
  return gf;
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> out;
  for (Layer* layer : {static_cast<Layer*>(conv1_.get()), static_cast<Layer*>(norm1_.get()),
                       static_cast<Layer*>(conv2_.get()), static_cast<Layer*>(norm2_.get())}) {
    auto p = layer->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

double ResidualBlock::flops() const { return conv1_->flops() + conv2_->flops(); }

std::string ResidualBlock::name() const {
  return "residual_block(" + std::to_string(channels_) + ")";
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  // The public constructor re-derives geometry from (channels, height, width),
  // but height/width are not stored — deep-copy the sublayers instead.
  // NOLINTNEXTLINE(*-owning-memory): private default ctor, make_unique cannot reach it
  std::unique_ptr<ResidualBlock> copy(new ResidualBlock());
  copy->channels_ = channels_;
  copy->conv1_ = clone_layer_as(*conv1_);
  copy->norm1_ = clone_layer_as(*norm1_);
  copy->relu1_ = clone_layer_as(*relu1_);
  copy->conv2_ = clone_layer_as(*conv2_);
  copy->norm2_ = clone_layer_as(*norm2_);
  return copy;
}

}  // namespace eugene::nn
