// Training: joint deep-supervision training of staged models (all heads
// trained together), and plain single-output classifier training, which the
// reduction and labeling services and calibration's head fine-tuning (paper
// Eq. 4) use. Both run one minibatch-SGD epoch loop.
#pragma once

#include <functional>
#include <span>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/staged_model.hpp"

namespace eugene::nn {

/// Hyperparameters for staged-model training.
struct StagedTrainConfig {
  std::size_t epochs = 8;
  std::size_t batch_size = 32;
  SgdConfig sgd;
  double entropy_alpha = 0.0;          ///< α in Eq. 4; 0 disables calibration
  std::vector<double> head_loss_weights;  ///< per-stage loss weights; empty = all 1
  double lr_decay_per_epoch = 1.0;     ///< multiplicative LR schedule
  std::uint64_t shuffle_seed = 7;
};

/// Per-epoch progress snapshot passed to the optional callback.
struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
  double learning_rate = 0.0;
};

/// Deep-supervision trainer for StagedModel: every head contributes a
/// cross-entropy (+ optional entropy regularization) term; gradients flow
/// through trunks with the chain joined at stage boundaries.
class StagedTrainer {
 public:
  StagedTrainer(StagedModel& model, StagedTrainConfig config);

  /// Runs one pass over the (shuffled) data; returns the mean loss.
  double train_epoch(std::span<const tensor::Tensor> images,
                     std::span<const std::size_t> labels);

  /// Runs config.epochs epochs, invoking `on_epoch` after each if non-null.
  void fit(std::span<const tensor::Tensor> images, std::span<const std::size_t> labels,
           const std::function<void(const EpochStats&)>& on_epoch = nullptr);

  /// Fraction of samples whose stage-`stage` prediction equals the label.
  static double evaluate_accuracy(const StagedModel& model,
                                  std::span<const tensor::Tensor> images,
                                  std::span<const std::size_t> labels, std::size_t stage);

 private:
  /// Forward + backward for one sample; returns its total (weighted) loss.
  double train_sample(const tensor::Tensor& image, std::size_t label);

  StagedModel& model_;
  StagedTrainConfig config_;
  SgdOptimizer optimizer_;
  Rng shuffle_rng_;
};

/// Hyperparameters for plain (single-exit) classifier training.
struct ClassifierTrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  SgdConfig sgd;
  double entropy_alpha = 0.0;
  std::uint64_t shuffle_seed = 7;
};

/// Trains a Sequential ending in class logits with softmax cross-entropy
/// (plus config.entropy_alpha times the entropy term of Eq. 4). An epoch
/// with batch size 0 throws eugene::InvalidArgument.
void train_classifier(Sequential& model, std::span<const tensor::Tensor> inputs,
                      std::span<const std::size_t> labels,
                      const ClassifierTrainConfig& config);

/// Accuracy of a Sequential classifier.
double classifier_accuracy(const Sequential& model,
                           std::span<const tensor::Tensor> inputs,
                           std::span<const std::size_t> labels);

}  // namespace eugene::nn
