#include "gp/confidence_curve.hpp"

#include "common/stats.hpp"

namespace eugene::gp {

std::size_t ConfidenceCurveModel::pair_index(std::size_t from_stage,
                                             std::size_t to_stage) const {
  EUGENE_REQUIRE(from_stage < to_stage && to_stage < num_stages_,
                 "ConfidenceCurveModel: invalid stage pair");
  // Dense index over ordered pairs (l, l'), l < l'.
  std::size_t idx = 0;
  for (std::size_t f = 0; f < from_stage; ++f) idx += num_stages_ - 1 - f;
  return idx + (to_stage - from_stage - 1);
}

GaussianProcess1D fit_pair_gp(const calib::StagedEvaluation& eval,
                              std::size_t from_stage, std::size_t to_stage) {
  EUGENE_REQUIRE(from_stage < to_stage && to_stage < eval.num_stages(),
                 "fit_pair_gp: invalid stage pair");
  const std::vector<float> x_conf = eval.confidence(from_stage);
  const std::vector<float> y_conf = eval.confidence(to_stage);
  const std::vector<double> x(x_conf.begin(), x_conf.end());
  const std::vector<double> y(y_conf.begin(), y_conf.end());
  GaussianProcess1D gp;
  gp.fit(x, y);
  return gp;
}

CurveFitQuality evaluate_curve(const calib::StagedEvaluation& test_eval,
                               std::size_t from_stage, std::size_t to_stage,
                               const std::function<double(double)>& predict) {
  EUGENE_REQUIRE(from_stage < to_stage && to_stage < test_eval.num_stages(),
                 "evaluate_curve: invalid stage pair");
  const std::vector<float> from_conf = test_eval.confidence(from_stage);
  const std::vector<float> to_conf = test_eval.confidence(to_stage);
  const std::vector<double> truth(to_conf.begin(), to_conf.end());
  std::vector<double> pred(from_conf.size());
  for (std::size_t i = 0; i < from_conf.size(); ++i)
    pred[i] = clamp(predict(from_conf[i]), 0.0, 1.0);
  CurveFitQuality q;
  q.mae = mean_absolute_error(truth, pred);
  q.r_squared = r_squared(truth, pred);
  return q;
}

void ConfidenceCurveModel::fit(const calib::StagedEvaluation& train_eval) {
  EUGENE_REQUIRE(train_eval.num_stages() >= 2,
                 "ConfidenceCurveModel: need at least two stages");
  EUGENE_REQUIRE(train_eval.num_samples() >= 2,
                 "ConfidenceCurveModel: need at least two samples");
  num_stages_ = train_eval.num_stages();

  const std::size_t num_pairs = num_stages_ * (num_stages_ - 1) / 2;
  approximations_.assign(num_pairs, PiecewiseLinear{});
  priors_.assign(num_stages_, 0.0);

  for (std::size_t s = 0; s < num_stages_; ++s) {
    const auto conf = train_eval.confidence(s);
    double sum = 0.0;
    for (float c : conf) sum += c;
    priors_[s] = sum / static_cast<double>(conf.size());
  }

  for (std::size_t from = 0; from < num_stages_; ++from) {
    for (std::size_t to = from + 1; to < num_stages_; ++to) {
      const GaussianProcess1D gp = fit_pair_gp(train_eval, from, to);
      approximations_[pair_index(from, to)] = PiecewiseLinear::from_function(
          [&gp](double c) { return gp.predict(c).mean; }, kGridSegments, 0.0, 1.0);
    }
  }
}

void ConfidenceCurveModel::restore(std::size_t num_stages,
                                   std::vector<PiecewiseLinear> approximations,
                                   std::vector<double> priors) {
  EUGENE_REQUIRE(num_stages >= 2, "ConfidenceCurveModel::restore: need >= 2 stages");
  const std::size_t num_pairs = num_stages * (num_stages - 1) / 2;
  EUGENE_REQUIRE(approximations.size() == num_pairs,
                 "ConfidenceCurveModel::restore: approximation count mismatch");
  EUGENE_REQUIRE(priors.size() == num_stages,
                 "ConfidenceCurveModel::restore: prior count mismatch");
  for (const auto& a : approximations)
    EUGENE_REQUIRE(!a.empty(), "ConfidenceCurveModel::restore: empty approximation");
  num_stages_ = num_stages;
  approximations_ = std::move(approximations);
  priors_ = std::move(priors);
}

const PiecewiseLinear& ConfidenceCurveModel::approximation(std::size_t from_stage,
                                                           std::size_t to_stage) const {
  EUGENE_REQUIRE(fitted(), "ConfidenceCurveModel::approximation before fit/restore");
  return approximations_[pair_index(from_stage, to_stage)];
}

double ConfidenceCurveModel::predict(std::size_t from_stage, std::size_t to_stage,
                                     double confidence) const {
  EUGENE_REQUIRE(fitted(), "ConfidenceCurveModel::predict before fit");
  const double raw = approximations_[pair_index(from_stage, to_stage)](confidence);
  return clamp(raw, 0.0, 1.0);
}

double ConfidenceCurveModel::prior_confidence(std::size_t stage) const {
  EUGENE_REQUIRE(stage < num_stages_, "prior_confidence: stage out of range");
  return priors_[stage];
}

}  // namespace eugene::gp
