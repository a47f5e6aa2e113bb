#include "nn/staged_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "nn/residual.hpp"

namespace eugene::nn {

using tensor::Tensor;

void StagedModel::add_stage(std::unique_ptr<Sequential> trunk,
                            std::unique_ptr<Sequential> head) {
  EUGENE_REQUIRE(trunk != nullptr && head != nullptr, "add_stage: null trunk or head");
  stages_.push_back(Stage{std::move(trunk), std::move(head)});
}

void StagedModel::run_stage_into(std::size_t s, const Tensor& input, StageOutput& out,
                                 ScratchArena& arena) const {
  EUGENE_REQUIRE(s < stages_.size(), "run_stage: stage index out of range");
  const ActivationView in = ActivationView::of(input);
  arena.reset();
  const ActivationView feat = stages_[s].trunk->infer(in, arena);
  // Copy the features into out.features' own storage, reshaping it only
  // when the shape changes.
  const tensor::Shape& have = out.features.shape();
  if (std::equal(feat.dims, feat.dims + feat.rank, have.begin(), have.end()))
    std::copy_n(feat.data, feat.numel(), out.features.raw());
  else
    out.features = Tensor(tensor::Shape(feat.dims, feat.dims + feat.rank),
                          std::vector<float>(feat.data, feat.data + feat.numel()));
  // The trunk's scratch is dead once its features are copied out, so the
  // head reuses it: the arena's high-water mark is max(trunk, head).
  arena.reset();
  const ActivationView logits =
      stages_[s].head->infer(ActivationView::of(out.features), arena);
  EUGENE_CHECK_EQ(logits.numel(), num_classes_) << "head produced wrong logit count";
  out.probs.resize(num_classes_);
  softmax_into({logits.data, num_classes_}, out.probs);
  out.predicted_label = argmax(out.probs);
  out.confidence = out.probs[out.predicted_label];
}

StageOutput StagedModel::run_stage(std::size_t s, const Tensor& input) const {
  StageOutput out;
  run_stage_into(s, input, out, thread_arena());
  return out;
}

void StagedModel::run_stage_batch(std::size_t s,
                                  std::span<const Tensor* const> inputs,
                                  std::span<StageBatchItem> items,
                                  ScratchArena& arena) const {
  EUGENE_REQUIRE(!inputs.empty() && inputs.size() == items.size(),
                 "run_stage_batch: inputs/items size mismatch");
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    EUGENE_REQUIRE(inputs[b] != nullptr, "run_stage_batch: null input");
    run_stage_into(s, *inputs[b], items[b], arena);
  }
}

std::vector<StageOutput> StagedModel::forward_all(const Tensor& input) const {
  std::vector<StageOutput> outputs;
  outputs.reserve(stages_.size());
  const Tensor* current = &input;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    outputs.push_back(run_stage(s, *current));
    current = &outputs.back().features;
  }
  return outputs;
}

StageOutput StagedModel::run_stage_mc(std::size_t s, const Tensor& input,
                                      std::size_t samples) {
  EUGENE_REQUIRE(s < stages_.size(), "run_stage_mc: stage index out of range");
  EUGENE_REQUIRE(samples > 0, "run_stage_mc: need at least one sample");
  Tensor features = infer(*stages_[s].trunk, input);
  std::vector<double> mean_probs(num_classes_, 0.0);
  for (std::size_t i = 0; i < samples; ++i) {
    // The training forward keeps dropout masks active, sampling the posterior.
    const Tensor logits = stages_[s].head->forward(features);
    const std::vector<float> p = softmax(logits.data());
    for (std::size_t c = 0; c < num_classes_; ++c) mean_probs[c] += p[c];
  }
  StageOutput out;
  out.probs.resize(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c)
    out.probs[c] = static_cast<float>(mean_probs[c] / static_cast<double>(samples));
  out.predicted_label = argmax(out.probs);
  out.confidence = out.probs[out.predicted_label];
  out.features = std::move(features);
  return out;
}

Sequential& StagedModel::trunk(std::size_t s) {
  EUGENE_REQUIRE(s < stages_.size(), "trunk: stage index out of range");
  return *stages_[s].trunk;
}

const Sequential& StagedModel::trunk(std::size_t s) const {
  EUGENE_REQUIRE(s < stages_.size(), "trunk: stage index out of range");
  return *stages_[s].trunk;
}

Sequential& StagedModel::head(std::size_t s) {
  EUGENE_REQUIRE(s < stages_.size(), "head: stage index out of range");
  return *stages_[s].head;
}

const Sequential& StagedModel::head(std::size_t s) const {
  EUGENE_REQUIRE(s < stages_.size(), "head: stage index out of range");
  return *stages_[s].head;
}

std::vector<ParamRef> StagedModel::params() {
  std::vector<ParamRef> out;
  for (auto& stage : stages_) {
    auto t = stage.trunk->params();
    out.insert(out.end(), t.begin(), t.end());
    auto h = stage.head->params();
    out.insert(out.end(), h.begin(), h.end());
  }
  return out;
}

double StagedModel::stage_flops(std::size_t s) const {
  EUGENE_REQUIRE(s < stages_.size(), "stage_flops: stage index out of range");
  return stages_[s].trunk->flops() + stages_[s].head->flops();
}

std::size_t StagedModel::stage_param_bytes(std::size_t s) {
  EUGENE_REQUIRE(s < stages_.size(), "stage_param_bytes: stage index out of range");
  std::size_t count = 0;
  for (const auto& p : stages_[s].trunk->params()) count += p.value->numel();
  for (const auto& p : stages_[s].head->params()) count += p.value->numel();
  return count * sizeof(float);
}

StagedModel StagedModel::clone() const {
  StagedModel copy(num_classes_);
  for (const auto& stage : stages_)
    copy.add_stage(stage.trunk->clone_sequential(), stage.head->clone_sequential());
  return copy;
}

StagedModel build_staged_resnet(const StagedResNetConfig& config) {
  EUGENE_REQUIRE(!config.stage_channels.empty(), "build_staged_resnet: no stages");
  EUGENE_REQUIRE(config.blocks_per_stage >= 1, "build_staged_resnet: need >=1 block");
  Rng rng(config.seed);
  StagedModel model(config.num_classes);

  std::size_t channels = config.in_channels;
  std::size_t height = config.height;
  std::size_t width = config.width;

  for (std::size_t s = 0; s < config.stage_channels.size(); ++s) {
    auto trunk = std::make_unique<Sequential>();
    if (s > 0 && config.downsample_between_stages) {
      EUGENE_REQUIRE(height >= 2 && width >= 2,
                     "build_staged_resnet: image too small to downsample");
      trunk->add(std::make_unique<MaxPool2>());
      height /= 2;
      width /= 2;
    }
    // Transition convolution adjusts the channel count entering the stage
    // (the "bottom convolutional layer" of Fig. 3 for stage 0).
    tensor::Conv2dGeometry g;
    g.in_channels = channels;
    g.out_channels = config.stage_channels[s];
    g.in_height = height;
    g.in_width = width;
    trunk->add(std::make_unique<Conv2d>(g, rng));
    channels = config.stage_channels[s];
    trunk->add(std::make_unique<ChannelNorm>(channels));
    trunk->add(std::make_unique<ReLU>());
    for (std::size_t b = 0; b < config.blocks_per_stage; ++b)
      trunk->add(std::make_unique<ResidualBlock>(channels, height, width, rng));

    auto head = std::make_unique<Sequential>();
    if (config.head_dropout > 0.0f)
      head->add(std::make_unique<Dropout>(config.head_dropout,
                                          config.seed + 1000 + s));
    head->add(std::make_unique<GlobalAvgPool>());
    if (config.head_hidden > 0) {
      head->add(std::make_unique<Dense>(channels, config.head_hidden, rng));
      head->add(std::make_unique<ReLU>());
      head->add(std::make_unique<Dense>(config.head_hidden, config.num_classes, rng));
    } else {
      head->add(std::make_unique<Dense>(channels, config.num_classes, rng));
    }

    model.add_stage(std::move(trunk), std::move(head));
  }
  return model;
}

StagedModel build_staged_mlp(const StagedMlpConfig& config) {
  EUGENE_REQUIRE(config.input_dim > 0, "build_staged_mlp: zero input dimension");
  EUGENE_REQUIRE(!config.stage_widths.empty(), "build_staged_mlp: no stages");
  EUGENE_REQUIRE(config.layers_per_stage >= 1, "build_staged_mlp: need >=1 layer");
  Rng rng(config.seed);
  StagedModel model(config.num_classes);

  std::size_t width = config.input_dim;
  for (std::size_t s = 0; s < config.stage_widths.size(); ++s) {
    auto trunk = std::make_unique<Sequential>();
    if (s == 0) trunk->add(std::make_unique<Flatten>());
    for (std::size_t l = 0; l < config.layers_per_stage; ++l) {
      trunk->add(std::make_unique<Dense>(width, config.stage_widths[s], rng));
      trunk->add(std::make_unique<ReLU>());
      width = config.stage_widths[s];
    }
    auto head = std::make_unique<Sequential>();
    head->add(std::make_unique<Dense>(width, config.num_classes, rng));
    model.add_stage(std::move(trunk), std::move(head));
  }
  return model;
}

}  // namespace eugene::nn
