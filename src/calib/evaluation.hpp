// Per-stage evaluation tables: the bridge from trained staged models to the
// calibration metrics, the GP confidence-curve fits, and the scheduling
// experiments. Every Eugene experiment first materializes one of these.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/staged_model.hpp"

namespace eugene::calib {

/// One (sample, stage) observation.
struct StageRecord {
  std::size_t predicted = 0;
  std::size_t truth = 0;
  float confidence = 0.0f;
  std::vector<float> probs;  ///< full softmax distribution
};

/// Evaluation of a staged model over a dataset: records[stage][sample].
struct StagedEvaluation {
  std::vector<std::vector<StageRecord>> records;

  std::size_t num_stages() const { return records.size(); }
  std::size_t num_samples() const { return records.empty() ? 0 : records[0].size(); }

  /// Column extractors for the metric functions.
  std::vector<std::size_t> predicted(std::size_t stage) const;
  std::vector<std::size_t> truth(std::size_t stage) const;
  std::vector<float> confidence(std::size_t stage) const;

  /// True iff the stage-`stage` prediction of sample `i` is correct.
  bool correct(std::size_t stage, std::size_t i) const {
    return records[stage][i].predicted == records[stage][i].truth;
  }
};

/// Runs every sample through all stages deterministically.
StagedEvaluation evaluate_staged(const nn::StagedModel& model,
                                 const data::Dataset& dataset);

/// Same but with RDeepSense-style MC-dropout heads (`mc_samples` forward
/// passes per head, probabilities averaged). The model must have been built
/// with head_dropout > 0 for this to differ from evaluate_staged.
StagedEvaluation evaluate_staged_mc(nn::StagedModel& model, const data::Dataset& dataset,
                                    std::size_t mc_samples);

/// Accuracy at one stage.
double stage_accuracy(const StagedEvaluation& eval, std::size_t stage);

}  // namespace eugene::calib
