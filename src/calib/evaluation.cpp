#include "calib/evaluation.hpp"

#include "calib/ece.hpp"

namespace eugene::calib {

using tensor::Tensor;

std::vector<std::size_t> StagedEvaluation::predicted(std::size_t stage) const {
  EUGENE_REQUIRE(stage < records.size(), "predicted: stage out of range");
  std::vector<std::size_t> out;
  out.reserve(records[stage].size());
  for (const auto& r : records[stage]) out.push_back(r.predicted);
  return out;
}

std::vector<std::size_t> StagedEvaluation::truth(std::size_t stage) const {
  EUGENE_REQUIRE(stage < records.size(), "truth: stage out of range");
  std::vector<std::size_t> out;
  out.reserve(records[stage].size());
  for (const auto& r : records[stage]) out.push_back(r.truth);
  return out;
}

std::vector<float> StagedEvaluation::confidence(std::size_t stage) const {
  EUGENE_REQUIRE(stage < records.size(), "confidence: stage out of range");
  std::vector<float> out;
  out.reserve(records[stage].size());
  for (const auto& r : records[stage]) out.push_back(r.confidence);
  return out;
}

StagedEvaluation evaluate_staged(const nn::StagedModel& model,
                                 const data::Dataset& dataset) {
  EUGENE_REQUIRE(!dataset.empty(), "evaluate_staged: empty dataset");
  StagedEvaluation eval;
  eval.records.resize(model.num_stages());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto outputs = model.forward_all(dataset.samples[i]);
    for (std::size_t s = 0; s < outputs.size(); ++s) {
      StageRecord r;
      r.predicted = outputs[s].predicted_label;
      r.truth = dataset.labels[i];
      r.confidence = outputs[s].confidence;
      r.probs = outputs[s].probs;
      eval.records[s].push_back(std::move(r));
    }
  }
  return eval;
}

StagedEvaluation evaluate_staged_mc(nn::StagedModel& model, const data::Dataset& dataset,
                                    std::size_t mc_samples) {
  EUGENE_REQUIRE(!dataset.empty(), "evaluate_staged_mc: empty dataset");
  StagedEvaluation eval;
  eval.records.resize(model.num_stages());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Tensor* current = &dataset.samples[i];
    nn::StageOutput out;
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      out = model.run_stage_mc(s, *current, mc_samples);
      StageRecord r;
      r.predicted = out.predicted_label;
      r.truth = dataset.labels[i];
      r.confidence = out.confidence;
      r.probs = out.probs;
      eval.records[s].push_back(std::move(r));
      current = &out.features;
    }
  }
  return eval;
}

double stage_accuracy(const StagedEvaluation& eval, std::size_t stage) {
  return overall_accuracy(eval.predicted(stage), eval.truth(stage));
}

}  // namespace eugene::calib
