#include "calib/calibrators.hpp"

#include <cmath>

#include "calib/ece.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "nn/train.hpp"

namespace eugene::calib {

using tensor::Tensor;

std::vector<std::vector<Tensor>> stage_features(const nn::StagedModel& model,
                                                const data::Dataset& dataset) {
  EUGENE_REQUIRE(!dataset.empty(), "stage_features: empty dataset");
  std::vector<std::vector<Tensor>> features(model.num_stages());
  for (auto& f : features) f.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Tensor* current = &dataset.samples[i];
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      features[s].push_back(nn::infer(model.trunk(s), *current));
      current = &features[s].back();
    }
  }
  return features;
}

void finetune_head(nn::StagedModel& model, std::size_t stage,
                   std::span<const Tensor> features,
                   std::span<const std::size_t> labels, double alpha,
                   std::size_t epochs, double learning_rate, std::size_t batch_size) {
  nn::ClassifierTrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch_size;
  config.sgd.learning_rate = learning_rate;
  config.sgd.momentum = 0.9;
  config.sgd.weight_decay = 0.0;  // calibration should not shrink the head
  config.entropy_alpha = alpha;
  config.shuffle_seed = 13 + stage;
  nn::train_classifier(model.head(stage), features, labels, config);
}

namespace {

/// ECE of one stage's head evaluated on cached features.
double head_ece(const nn::StagedModel& model, std::size_t stage,
                std::span<const Tensor> features,
                std::span<const std::size_t> labels, std::size_t bins) {
  std::vector<std::size_t> predicted(features.size());
  std::vector<std::size_t> truth(labels.begin(), labels.end());
  std::vector<float> confidence(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    const Tensor logits = nn::infer(model.head(stage), features[i]);
    const std::vector<float> probs = softmax(logits.data());
    predicted[i] = argmax(probs);
    confidence[i] = probs[predicted[i]];
  }
  return expected_calibration_error(predicted, truth, confidence, bins);
}

std::vector<Tensor> copy_weights(const std::vector<nn::ParamRef>& params) {
  std::vector<Tensor> weights;
  weights.reserve(params.size());
  for (const auto& p : params) weights.push_back(*p.value);
  return weights;
}

void restore_weights(const std::vector<nn::ParamRef>& params,
                     const std::vector<Tensor>& weights) {
  for (std::size_t i = 0; i < params.size(); ++i) *params[i].value = weights[i];
}

}  // namespace

std::vector<double> calibrate_heads_entropy(nn::StagedModel& model,
                                            const data::Dataset& calib_set,
                                            const EntropyCalibConfig& config) {
  EUGENE_REQUIRE(!config.alpha_grid.empty(), "calibrate_heads_entropy: empty alpha grid");
  EUGENE_REQUIRE(calib_set.size() >= 10, "calibrate_heads_entropy: calibration set too small");
  // One stage's head inputs at a time, each computed from the previous
  // stage's in place (fine-tuning a head leaves every trunk unchanged): the
  // calibration set's features are never all alive at once.
  std::vector<Tensor> features = calib_set.samples;

  // Hold out part of the calibration set for α selection: the heads
  // fine-tune hard enough on the fit split that in-sample ECE stops
  // predicting held-out ECE.
  const std::size_t fit_count = calib_set.size() * 7 / 10;
  std::vector<std::size_t> fit_labels(calib_set.labels.begin(),
                                      calib_set.labels.begin() + fit_count);
  std::vector<std::size_t> val_labels(calib_set.labels.begin() + fit_count,
                                      calib_set.labels.end());

  std::vector<double> chosen(model.num_stages(), 0.0);
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    for (Tensor& f : features) f = nn::infer(model.trunk(s), f);
    const std::span<const Tensor> fit_features(features.data(), fit_count);
    const std::span<const Tensor> val_features =
        std::span<const Tensor>(features).subspan(fit_count);
    const auto head = model.head(s).params();
    // Copy the pre-calibration weights so every α starts equal; the
    // untouched head is itself a candidate (fine-tuning must earn its keep).
    const std::vector<Tensor> initial = copy_weights(head);

    double best_alpha = 0.0;
    double best_ece = head_ece(model, s, val_features, val_labels, config.ece_bins);
    std::vector<Tensor> best_weights = initial;
    for (double alpha : config.alpha_grid) {
      restore_weights(head, initial);
      finetune_head(model, s, fit_features, fit_labels, alpha, config.epochs,
                    config.learning_rate, config.batch_size);
      const double ece = head_ece(model, s, val_features, val_labels, config.ece_bins);
      EUGENE_LOG(Debug) << "stage " << s << " alpha=" << alpha << " val ece=" << ece;
      if (ece < best_ece) {
        best_ece = ece;
        best_alpha = alpha;
        best_weights = copy_weights(head);
      }
    }
    restore_weights(head, best_weights);
    chosen[s] = best_alpha;
    EUGENE_LOG(Info) << "stage " << s << " calibration picked alpha=" << best_alpha
                     << " (held-out ECE " << best_ece << ")";
  }
  return chosen;
}

namespace {

/// Negative log-likelihood of temperature-scaled logits.
double nll_at_temperature(const std::vector<Tensor>& logits,
                          const std::vector<std::size_t>& labels, double temperature) {
  double nll = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor scaled = logits[i];
    scaled *= static_cast<float>(1.0 / temperature);
    const std::vector<float> p = softmax(scaled.data());
    nll -= std::log(static_cast<double>(p[labels[i]]) + 1e-12);
  }
  return nll;
}

}  // namespace

std::vector<double> fit_temperatures(const nn::StagedModel& model,
                                     const data::Dataset& calib_set) {
  const auto features = stage_features(model, calib_set);
  std::vector<double> temps(model.num_stages(), 1.0);
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    std::vector<Tensor> logits;
    logits.reserve(calib_set.size());
    for (std::size_t i = 0; i < calib_set.size(); ++i)
      logits.push_back(nn::infer(model.head(s), features[s][i]));

    // Golden-section search on log-temperature.
    const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
    double lo = std::log(0.05), hi = std::log(10.0);
    double x1 = hi - phi * (hi - lo), x2 = lo + phi * (hi - lo);
    double f1 = nll_at_temperature(logits, calib_set.labels, std::exp(x1));
    double f2 = nll_at_temperature(logits, calib_set.labels, std::exp(x2));
    for (int iter = 0; iter < 50; ++iter) {
      if (f1 < f2) {
        hi = x2;
        x2 = x1;
        f2 = f1;
        x1 = hi - phi * (hi - lo);
        f1 = nll_at_temperature(logits, calib_set.labels, std::exp(x1));
      } else {
        lo = x1;
        x1 = x2;
        f1 = f2;
        x2 = lo + phi * (hi - lo);
        f2 = nll_at_temperature(logits, calib_set.labels, std::exp(x2));
      }
    }
    temps[s] = std::exp((lo + hi) / 2.0);
  }
  return temps;
}

StagedEvaluation evaluate_with_temperature(const nn::StagedModel& model,
                                           const data::Dataset& dataset,
                                           const std::vector<double>& temperatures) {
  EUGENE_REQUIRE(temperatures.size() == model.num_stages(),
                 "evaluate_with_temperature: one temperature per stage required");
  const auto features = stage_features(model, dataset);
  StagedEvaluation eval;
  eval.records.resize(model.num_stages());
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      Tensor logits = nn::infer(model.head(s), features[s][i]);
      logits *= static_cast<float>(1.0 / temperatures[s]);
      StageRecord r;
      r.probs = softmax(logits.data());
      r.predicted = argmax(r.probs);
      r.confidence = r.probs[r.predicted];
      r.truth = dataset.labels[i];
      eval.records[s].push_back(std::move(r));
    }
  }
  return eval;
}

}  // namespace eugene::calib
