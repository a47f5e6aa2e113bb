// Confidence calibrators.
//
// RTDeepIoT (the paper's method, Eq. 4): fine-tune the softmax heads with
// L = CE + α·H(p), picking α by grid search with the paper's sign rule as
// the starting intuition (α < 0 when confidence underestimates accuracy).
//
// Temperature scaling (Guo et al., cited as [11]) is included as an
// ablation extra: per-stage temperature fitted by NLL minimization.
#pragma once

#include <span>
#include <vector>

#include "calib/evaluation.hpp"

namespace eugene::calib {

/// Fine-tunes one stage head on cached features with the Eq. 4 loss:
/// nn::train_classifier on the head with momentum 0.9, no weight decay and
/// shuffle seed 13 + stage. Trunk weights are frozen.
void finetune_head(nn::StagedModel& model, std::size_t stage,
                   std::span<const tensor::Tensor> features,
                   std::span<const std::size_t> labels, double alpha,
                   std::size_t epochs = 200, double learning_rate = 0.1,
                   std::size_t batch_size = 32);

/// Grid-search configuration for entropy calibration.
struct EntropyCalibConfig {
  /// Asymmetric on the sharpening side: the thin GAP+Dense heads start out
  /// strongly underconfident and need large positive α to recover. Values
  /// much above ~2 make the entropy term dominate CE (degenerate one-class
  /// heads); the ECE-based selection rejects them if they slip through.
  std::vector<double> alpha_grid = {-1.0, -0.6, -0.35, -0.2, -0.1, 0.0, 0.1,
                                    0.2, 0.35, 0.6, 1.0, 1.75};
  /// Head fine-tuning needs a real optimization budget: confidence recovery
  /// requires logit magnitudes to grow, which plain SGD does slowly.
  std::size_t epochs = 200;
  double learning_rate = 0.1;
  std::size_t batch_size = 32;
  std::size_t ece_bins = 10;
};

/// Calibrates the model head by head: for every stage, tries each α
/// (fine-tuning that head from its pre-calibration weights each time, on
/// the first 70% of `calib_set`) and keeps the α giving the lowest stage
/// ECE on the held-out 30%. The untouched head is also a candidate, so
/// calibration never loses to doing nothing on the validation split. Each
/// head may pick a different α — early heads often underestimate while
/// late heads overestimate. Returns the chosen α per stage (0 both for
/// "α=0 won" and "no fine-tune won").
std::vector<double> calibrate_heads_entropy(nn::StagedModel& model,
                                            const data::Dataset& calib_set,
                                            const EntropyCalibConfig& config = {});

/// Fits one temperature per stage by minimizing NLL on the calibration set
/// (golden-section search over T ∈ [0.05, 10]).
std::vector<double> fit_temperatures(const nn::StagedModel& model,
                                     const data::Dataset& calib_set);

/// Evaluates the model with per-stage temperature-scaled probabilities.
StagedEvaluation evaluate_with_temperature(const nn::StagedModel& model,
                                           const data::Dataset& dataset,
                                           const std::vector<double>& temperatures);

/// Trunk outputs per stage for every sample: features[stage][sample] is the
/// input that stage's head sees. Shared by the fine-tuners above.
std::vector<std::vector<tensor::Tensor>> stage_features(const nn::StagedModel& model,
                                                        const data::Dataset& dataset);

}  // namespace eugene::calib
