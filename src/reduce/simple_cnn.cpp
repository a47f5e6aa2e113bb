#include "reduce/simple_cnn.hpp"

#include "common/check.hpp"

namespace eugene::reduce {

SimpleCnn::SimpleCnn(const SimpleCnnConfig& config) : config_(config) {
  EUGENE_REQUIRE(!config.conv_channels.empty(), "SimpleCnn: need at least one conv layer");
  Rng rng(config.seed);
  std::size_t channels = config.in_channels;
  for (std::size_t layer = 0; layer < config.conv_channels.size(); ++layer) {
    const std::size_t c_out = config.conv_channels[layer];
    EUGENE_REQUIRE(c_out > 0, "SimpleCnn: zero-channel conv layer");
    tensor::Conv2dGeometry g;
    g.in_channels = channels;
    g.out_channels = c_out;
    g.in_height = config.height;
    g.in_width = config.width;
    auto conv = std::make_unique<nn::Conv2d>(g, rng);
    convs_.push_back(conv.get());
    net_.add(std::move(conv));
    // No normalization on the final conv block: ChannelNorm zeroes each
    // channel's spatial mean, which would make the downstream global
    // average pool nearly input-independent after ReLU.
    if (layer + 1 < config.conv_channels.size()) {
      auto norm = std::make_unique<nn::ChannelNorm>(c_out);
      norms_.push_back(norm.get());
      net_.add(std::move(norm));
    }
    net_.add(std::make_unique<nn::ReLU>());
    channels = c_out;
  }
  net_.add(std::make_unique<nn::GlobalAvgPool>());
  auto dense = std::make_unique<nn::Dense>(channels, config.num_classes, rng);
  head_ = dense.get();
  net_.add(std::move(dense));
}

tensor::Tensor SimpleCnn::forward(const tensor::Tensor& input) const {
  return nn::infer(net_, input);
}

nn::Conv2d& SimpleCnn::conv(std::size_t i) {
  EUGENE_REQUIRE(i < convs_.size(), "SimpleCnn::conv index out of range");
  return *convs_[i];
}

nn::ChannelNorm& SimpleCnn::norm(std::size_t i) {
  EUGENE_REQUIRE(i < norms_.size(), "SimpleCnn::norm index out of range");
  return *norms_[i];
}

nn::Dense& SimpleCnn::head() {
  EUGENE_CHECK(head_ != nullptr) << "SimpleCnn: head missing";
  return *head_;
}

std::size_t SimpleCnn::param_count() {
  std::size_t count = 0;
  for (const auto& p : net_.params()) count += p.value->numel();
  return count;
}

}  // namespace eugene::reduce
