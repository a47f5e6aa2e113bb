#include "labeling/self_training.hpp"

#include "common/stats.hpp"

namespace eugene::labeling {

using tensor::Tensor;

SelfTrainingLabeler::SelfTrainingLabeler(ModelFactory factory, SelfTrainingConfig config)
    : factory_(std::move(factory)), config_(config) {
  EUGENE_REQUIRE(factory_ != nullptr, "SelfTrainingLabeler: null model factory");
  EUGENE_REQUIRE(config_.rounds >= 1, "SelfTrainingLabeler: need at least one round");
  EUGENE_REQUIRE(config_.adopt_confidence > 0.0 && config_.adopt_confidence <= 1.0,
                 "SelfTrainingLabeler: adopt_confidence outside (0,1]");
}

data::Dataset SelfTrainingLabeler::run(const data::Dataset& labeled,
                                       const data::Dataset& unlabeled,
                                       LabelingReport* report) {
  EUGENE_REQUIRE(!labeled.empty(), "SelfTrainingLabeler: empty labeled set");

  data::Dataset augmented = labeled;
  std::vector<bool> adopted(unlabeled.size(), false);
  std::size_t adopted_total = 0;
  std::size_t adopted_correct = 0;
  LabelingReport local_report;

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    // Fresh proposer (and, for the falsifiability check, a fresh verifier
    // with a different initialization) trained on everything adopted so far.
    nn::Sequential proposer = factory_(2 * round);
    nn::train_classifier(proposer, augmented.samples, augmented.labels, config_.training);
    nn::Sequential verifier = factory_(2 * round + 1);
    if (config_.require_agreement)
      nn::train_classifier(verifier, augmented.samples, augmented.labels,
                           config_.training);

    std::size_t adopted_this_round = 0;
    for (std::size_t i = 0; i < unlabeled.size(); ++i) {
      if (adopted[i]) continue;
      const std::vector<float> probs =
          nn::softmax_probs(nn::infer(proposer, unlabeled.samples[i]));
      const std::size_t label = argmax(probs);
      if (probs[label] < config_.adopt_confidence) continue;
      if (config_.require_agreement) {
        const std::vector<float> verify_probs =
            nn::softmax_probs(nn::infer(verifier, unlabeled.samples[i]));
        if (argmax(verify_probs) != label) continue;  // falsified
      }
      adopted[i] = true;
      ++adopted_this_round;
      ++adopted_total;
      if (label == unlabeled.labels[i]) ++adopted_correct;
      augmented.push(unlabeled.samples[i], label, unlabeled.difficulty[i]);
    }
    local_report.adopted_per_round.push_back(adopted_this_round);
    if (adopted_this_round == 0) break;  // converged
  }

  local_report.adopted_total = adopted_total;
  local_report.pseudo_label_accuracy =
      adopted_total == 0 ? 0.0
                         : static_cast<double>(adopted_correct) /
                               static_cast<double>(adopted_total);
  if (report != nullptr) *report = local_report;
  return augmented;
}

BenefitReport evaluate_labeling_benefit(const SelfTrainingLabeler::ModelFactory& factory,
                                        const data::Dataset& labeled,
                                        const data::Dataset& unlabeled,
                                        const data::Dataset& test,
                                        const SelfTrainingConfig& config) {
  EUGENE_REQUIRE(!test.empty(), "evaluate_labeling_benefit: empty test set");
  BenefitReport report;

  // (a) Small labeled set only.
  {
    nn::Sequential model = factory(1001);
    nn::train_classifier(model, labeled.samples, labeled.labels, config.training);
    report.labeled_only =
        nn::classifier_accuracy(model, test.samples, test.labels);
  }
  // (b) Labeled + pseudo-labels from the labeling service.
  {
    SelfTrainingLabeler labeler(factory, config);
    const data::Dataset augmented = labeler.run(labeled, unlabeled, &report.labeling);
    nn::Sequential model = factory(1002);
    nn::train_classifier(model, augmented.samples, augmented.labels, config.training);
    report.self_trained =
        nn::classifier_accuracy(model, test.samples, test.labels);
  }
  // (c) Fully supervised upper bound: real labels for the whole pool.
  {
    data::Dataset full = labeled;
    full.append(unlabeled);
    nn::Sequential model = factory(1003);
    nn::train_classifier(model, full.samples, full.labels, config.training);
    report.fully_supervised =
        nn::classifier_accuracy(model, test.samples, test.labels);
  }
  return report;
}

}  // namespace eugene::labeling
