// A plain convolutional classifier with typed layer access — the model the
// reduction service (paper §II-B) prunes and the caching service retrains.
// Structure: [Conv → ChannelNorm → ReLU] × (L−1) → Conv → ReLU →
// GlobalAvgPool → Dense. The final block is un-normalized so the pooled
// features stay input-dependent (see the constructor note).
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace eugene::reduce {

/// Architecture of a SimpleCnn.
struct SimpleCnnConfig {
  std::size_t in_channels = 3;
  std::size_t height = 16;
  std::size_t width = 16;
  std::size_t num_classes = 10;
  std::vector<std::size_t> conv_channels = {16, 16, 16};
  std::uint64_t seed = 11;
};

/// Single-exit CNN with direct access to each layer's weights, which the
/// channel-pruning transformation needs.
class SimpleCnn {
 public:
  explicit SimpleCnn(const SimpleCnnConfig& config);

  /// Inference logits for one sample (nn::infer); training goes through
  /// net() and nn::train_classifier.
  tensor::Tensor forward(const tensor::Tensor& input) const;

  /// Underlying container (for the generic trainer).
  nn::Sequential& net() { return net_; }

  const SimpleCnnConfig& config() const { return config_; }
  std::size_t num_conv_layers() const { return convs_.size(); }
  nn::Conv2d& conv(std::size_t i);
  /// Norm of conv block i; valid for i < num_conv_layers() − 1.
  nn::ChannelNorm& norm(std::size_t i);
  nn::Dense& head();

  /// Forward FLOPs and learnable parameter count — the reduction service's
  /// size/cost accounting.
  double flops() const { return net_.flops(); }
  std::size_t param_count();

 private:
  SimpleCnnConfig config_;
  nn::Sequential net_;
  std::vector<nn::Conv2d*> convs_;       // owned by net_
  std::vector<nn::ChannelNorm*> norms_;  // owned by net_
  nn::Dense* head_ = nullptr;            // owned by net_
};

}  // namespace eugene::reduce
