#include "nn/train.hpp"

#include <numeric>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace eugene::nn {

using tensor::Tensor;

namespace {

/// One minibatch-SGD epoch over `count` samples in a freshly shuffled order:
/// `train_sample(i)` runs forward + backward for sample i (accumulating its
/// gradients) and returns its loss; the optimizer steps on the mean gradient
/// every `batch_size` samples and once more on the remainder. Returns the
/// summed loss.
template <typename TrainSample>
double minibatch_epoch(std::size_t count, std::size_t batch_size, Rng& shuffle_rng,
                       SgdOptimizer& optimizer, TrainSample&& train_sample) {
  EUGENE_REQUIRE(batch_size > 0, "batch size must be positive");
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  shuffle_rng.shuffle(order);

  double loss_sum = 0.0;
  std::size_t in_batch = 0;
  optimizer.zero_grads();
  for (std::size_t idx : order) {
    loss_sum += train_sample(idx);
    if (++in_batch == batch_size) {
      optimizer.step(1.0 / static_cast<double>(in_batch));
      optimizer.zero_grads();
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    optimizer.step(1.0 / static_cast<double>(in_batch));
    optimizer.zero_grads();
  }
  return loss_sum;
}

}  // namespace

StagedTrainer::StagedTrainer(StagedModel& model, StagedTrainConfig config)
    : model_(model),
      config_(std::move(config)),
      optimizer_(model.params(), config_.sgd),
      shuffle_rng_(config_.shuffle_seed) {
  if (config_.head_loss_weights.empty())
    config_.head_loss_weights.assign(model_.num_stages(), 1.0);
  EUGENE_REQUIRE(config_.head_loss_weights.size() == model_.num_stages(),
                 "head_loss_weights size must match stage count");
}

double StagedTrainer::train_sample(const Tensor& image, std::size_t label) {
  const std::size_t num_stages = model_.num_stages();

  // Forward: thread features through trunks, caching per-stage logits.
  std::vector<Tensor> features;
  features.reserve(num_stages);
  std::vector<LossResult> losses;
  losses.reserve(num_stages);
  const Tensor* current = &image;
  double total_loss = 0.0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    features.push_back(model_.trunk(s).forward(*current));
    const Tensor logits = model_.head(s).forward(features.back());
    losses.push_back(
        cross_entropy_with_entropy_reg(logits, label, config_.entropy_alpha));
    total_loss += config_.head_loss_weights[s] * losses.back().value;
    current = &features.back();
  }

  // Backward: the last trunk receives only its head's gradient; earlier
  // trunks receive their head's gradient plus the gradient flowing back
  // from downstream stages.
  Tensor grad_from_next;  // empty until the last stage has been processed
  for (std::size_t s = num_stages; s-- > 0;) {
    Tensor grad_logits = losses[s].grad_logits;
    grad_logits *= static_cast<float>(config_.head_loss_weights[s]);
    Tensor grad_features = model_.head(s).backward(grad_logits);
    if (grad_from_next.numel() > 0) grad_features += grad_from_next;
    grad_from_next = model_.trunk(s).backward(grad_features);
  }
  return total_loss;
}

double StagedTrainer::train_epoch(std::span<const Tensor> images,
                                  std::span<const std::size_t> labels) {
  EUGENE_REQUIRE(images.size() == labels.size(), "images/labels size mismatch");
  EUGENE_REQUIRE(!images.empty(), "train_epoch: empty dataset");
  const double loss_sum =
      minibatch_epoch(images.size(), config_.batch_size, shuffle_rng_, optimizer_,
                      [&](std::size_t i) { return train_sample(images[i], labels[i]); });
  return loss_sum / static_cast<double>(images.size());
}

void StagedTrainer::fit(std::span<const Tensor> images,
                        std::span<const std::size_t> labels,
                        const std::function<void(const EpochStats&)>& on_epoch) {
  for (std::size_t e = 0; e < config_.epochs; ++e) {
    const double loss = train_epoch(images, labels);
    EpochStats stats{e, loss, optimizer_.learning_rate()};
    EUGENE_LOG(Info) << "epoch " << e << " loss " << loss;
    if (on_epoch) on_epoch(stats);
    optimizer_.set_learning_rate(optimizer_.learning_rate() * config_.lr_decay_per_epoch);
  }
}

double StagedTrainer::evaluate_accuracy(const StagedModel& model,
                                        std::span<const Tensor> images,
                                        std::span<const std::size_t> labels,
                                        std::size_t stage) {
  EUGENE_REQUIRE(images.size() == labels.size(), "images/labels size mismatch");
  EUGENE_REQUIRE(!images.empty(), "evaluate_accuracy: empty dataset");
  EUGENE_REQUIRE(stage < model.num_stages(), "evaluate_accuracy: bad stage");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor* current = &images[i];
    StageOutput out;
    for (std::size_t s = 0; s <= stage; ++s) {
      out = model.run_stage(s, *current);
      current = &out.features;
    }
    if (out.predicted_label == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

void train_classifier(Sequential& model, std::span<const Tensor> inputs,
                      std::span<const std::size_t> labels,
                      const ClassifierTrainConfig& config) {
  EUGENE_REQUIRE(inputs.size() == labels.size(), "inputs/labels size mismatch");
  EUGENE_REQUIRE(!inputs.empty(), "train_classifier: empty dataset");
  SgdOptimizer optimizer(model.params(), config.sgd);
  Rng shuffle_rng(config.shuffle_seed);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    minibatch_epoch(inputs.size(), config.batch_size, shuffle_rng, optimizer,
                    [&](std::size_t i) {
                      const LossResult loss = cross_entropy_with_entropy_reg(
                          model.forward(inputs[i]), labels[i], config.entropy_alpha);
                      model.backward(loss.grad_logits);
                      return loss.value;
                    });
  }
}

double classifier_accuracy(const Sequential& model, std::span<const Tensor> inputs,
                           std::span<const std::size_t> labels) {
  EUGENE_REQUIRE(inputs.size() == labels.size(), "inputs/labels size mismatch");
  EUGENE_REQUIRE(!inputs.empty(), "classifier_accuracy: empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor logits = infer(model, inputs[i]);
    const std::vector<float> p = softmax_probs(logits);
    if (argmax(p) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

}  // namespace eugene::nn
