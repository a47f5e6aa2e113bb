// Staged (multi-exit) models — the inference structure at the heart of
// Eugene (paper Fig. 1 and Fig. 3).
//
// A StagedModel is a chain of trunk segments; after each trunk a thin
// classifier head emits (predicted label, confidence). The scheduler decides
// per task how many stages to run; confidence from early heads feeds the
// dynamic utility curve. Inference runs one sample per stage call: run_stage
// and run_stage_batch share one per-sample body (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/layers.hpp"

namespace eugene::nn {

/// What a stage's classifier head reports for one sample. run_stage_batch
/// writes into caller-owned outputs, whose features and probs keep their
/// storage when shapes repeat, so a warmed-up call allocates nothing.
struct StageOutput {
  tensor::Tensor features;          ///< trunk output, input to the next stage
  std::vector<float> probs;         ///< softmax distribution over classes
  std::size_t predicted_label = 0;  ///< argmax of probs
  float confidence = 0.0f;          ///< max of probs (paper's "classification confidence")
};

/// run_stage_batch's output slot (the serving benchmark's per-layer probe
/// names it).
using StageBatchItem = StageOutput;

/// Multi-exit network: trunks chained feature-to-feature, one softmax head
/// per stage (paper Fig. 3).
class StagedModel {
 public:
  explicit StagedModel(std::size_t num_classes) : num_classes_(num_classes) {
    EUGENE_REQUIRE(num_classes >= 2, "StagedModel: need at least two classes");
  }

  /// Appends a stage. The trunk maps previous features to new features; the
  /// head maps features to class logits.
  void add_stage(std::unique_ptr<Sequential> trunk, std::unique_ptr<Sequential> head);

  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_classes() const { return num_classes_; }

  /// Runs trunk `s` then its head on `input` (the previous stage's features,
  /// or the raw sample for stage 0) on this thread's arena. Const and
  /// write-free, so any number of threads may run stages of one model at
  /// once. Throws InvalidArgument when the input's rank is outside [1, 4].
  StageOutput run_stage(std::size_t s, const tensor::Tensor& input) const;

  /// run_stage over each of `inputs` in turn, on `arena`: items[b] is
  /// bitwise-identical to run_stage(s, *inputs[b]). Sizes must match. Kept
  /// for the serving benchmark's per-layer probe.
  void run_stage_batch(std::size_t s, std::span<const tensor::Tensor* const> inputs,
                       std::span<StageBatchItem> items, ScratchArena& arena) const;

  /// Runs every stage in order, returning all per-stage outputs.
  std::vector<StageOutput> forward_all(const tensor::Tensor& input) const;

  /// RDeepSense-style Monte-Carlo head sampling: evaluates the head's
  /// training forward (dropout active) `samples` times and averages the
  /// probability vectors. The trunk runs once, through nn::infer. Advances
  /// the dropout samplers, so it is not const.
  StageOutput run_stage_mc(std::size_t s, const tensor::Tensor& input, std::size_t samples);

  /// Stage `s`'s trunk and head: the trainer and calibration run their
  /// training forward/backward and read their parameters through these.
  Sequential& trunk(std::size_t s);
  const Sequential& trunk(std::size_t s) const;
  Sequential& head(std::size_t s);
  const Sequential& head(std::size_t s) const;

  /// All learnable parameters, trunk-then-head per stage, in stage order.
  std::vector<ParamRef> params();

  /// The values params() walks, in the same order, read through const: what
  /// a snapshot of a published model writes.
  ParamValues param_values() const;

  /// Forward FLOPs of stage `s` (trunk + head), for the profiler and the
  /// scheduler's stage cost model.
  double stage_flops(std::size_t s) const;

  /// Serialized parameter bytes of stage `s` (trunk + head) — what caching
  /// a stage on a device costs in download/storage (paper §II-B, §IV-A).
  std::size_t stage_param_bytes(std::size_t s) const;

  /// Deep copy of configuration + learned parameters, never training
  /// scratch (see Layer::clone). The copy-on-write model registry clones
  /// models that are concurrently serving; inference writes nothing, so
  /// that is race-free.
  StagedModel clone() const;

 private:
  struct Stage {
    ChildPtr<Sequential> trunk;
    ChildPtr<Sequential> head;
  };

  /// The one per-sample stage body under run_stage and run_stage_batch.
  void run_stage_into(std::size_t s, const tensor::Tensor& input, StageOutput& out,
                      ScratchArena& arena) const;

  std::size_t num_classes_;
  std::vector<Stage> stages_;
};

/// Configuration for the paper-style staged ResNet (Fig. 3: an initial
/// convolution, then stages of residual blocks, each with a softmax head).
struct StagedResNetConfig {
  std::size_t in_channels = 3;
  std::size_t height = 16;
  std::size_t width = 16;
  std::size_t num_classes = 10;
  std::vector<std::size_t> stage_channels = {8, 16, 32};  ///< one entry per stage
  std::size_t blocks_per_stage = 1;  ///< 3 matches the paper's 6-conv stages
  float head_dropout = 0.0f;         ///< >0 enables MC-dropout (RDeepSense) heads
  /// >0 inserts Dense(C→head_hidden)+ReLU before the classifier. The paper's
  /// "thin softmax" heads sit on a much wider backbone; a small hidden layer
  /// gives our narrow stages comparable per-sample confidence expressivity.
  std::size_t head_hidden = 0;
  std::uint64_t seed = 1;
};

/// Builds the staged ResNet described by `config`.
StagedModel build_staged_resnet(const StagedResNetConfig& config);

/// Configuration for a staged MLP — multi-exit serving for non-image
/// workloads (e.g. the DeepSense-style multichannel time-series windows of
/// data/timeseries.hpp). The input tensor is flattened by the first stage.
struct StagedMlpConfig {
  std::size_t input_dim = 0;  ///< numel of one sample
  std::size_t num_classes = 2;
  std::vector<std::size_t> stage_widths = {32, 32, 32};  ///< one entry per stage
  std::size_t layers_per_stage = 1;
  std::uint64_t seed = 1;
};

/// Builds the staged MLP described by `config`: per stage,
/// [Dense → ReLU] × layers_per_stage as the trunk and a Dense classifier
/// head, chained feature-to-feature like the staged ResNet.
StagedModel build_staged_mlp(const StagedMlpConfig& config);

}  // namespace eugene::nn
