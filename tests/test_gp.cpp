// Gaussian-process, piecewise-linear approximation, and confidence-curve
// model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "gp/confidence_curve.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/piecewise_linear.hpp"

namespace eugene::gp {
namespace {

TEST(GaussianProcess, InterpolatesSmoothFunction) {
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    const double xi = static_cast<double>(i) / 20.0;
    x.push_back(xi);
    y.push_back(std::sin(3.0 * xi));
  }
  GaussianProcess1D gp;
  gp.fit(x, y);
  for (double q : {0.13, 0.42, 0.77}) {
    EXPECT_NEAR(gp.predict(q).mean, std::sin(3.0 * q), 0.08) << "at " << q;
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  std::vector<double> x = {0.4, 0.45, 0.5, 0.55, 0.6};
  std::vector<double> y = {0.4, 0.45, 0.5, 0.55, 0.6};
  GaussianProcess1D gp;
  GpConfig cfg;
  cfg.length_scale_grid = {0.1};
  gp.fit(x, y, cfg);
  EXPECT_LT(gp.predict(0.5).stddev, gp.predict(0.0).stddev);
  EXPECT_LT(gp.predict(0.5).stddev, gp.predict(1.0).stddev);
}

TEST(GaussianProcess, SelectsLengthScaleByMarginalLikelihood) {
  // Rapidly varying data should prefer a short length scale.
  Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i <= 60; ++i) {
    const double xi = static_cast<double>(i) / 60.0;
    x.push_back(xi);
    y.push_back(std::sin(25.0 * xi));
  }
  GaussianProcess1D gp;
  gp.fit(x, y);
  EXPECT_LE(gp.length_scale(), 0.1);
}

TEST(GaussianProcess, SubsamplesLargeTrainingSets) {
  Rng rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < 1500; ++i) {
    const double xi = rng.uniform();
    x.push_back(xi);
    y.push_back(xi * xi + rng.normal(0.0, 0.02));
  }
  GaussianProcess1D gp;
  GpConfig cfg;
  cfg.max_train_points = 200;
  gp.fit(x, y, cfg);
  EXPECT_EQ(gp.train_size(), 200u);
  EXPECT_NEAR(gp.predict(0.5).mean, 0.25, 0.05);
}

TEST(GaussianProcess, RequiresFitBeforePredict) {
  GaussianProcess1D gp;
  EXPECT_THROW(gp.predict(0.5), InvalidArgument);
}

TEST(PiecewiseLinear, ExactOnLinearFunctions) {
  const auto f = PiecewiseLinear::from_function([](double x) { return 2.0 * x + 1.0; }, 4);
  for (double q : {0.0, 0.3, 0.5, 0.99, 1.0}) EXPECT_NEAR(f(q), 2.0 * q + 1.0, 1e-12);
}

TEST(PiecewiseLinear, ClampsOutsideDomain) {
  const auto f = PiecewiseLinear::from_function([](double x) { return x; }, 2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(f(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(f(7.0), 1.0);
}

TEST(PiecewiseLinear, ApproximatesSmoothCurvesOnAGrid) {
  const auto f =
      PiecewiseLinear::from_function([](double x) { return std::sin(3.0 * x); }, 10);
  double max_err = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    max_err = std::max(max_err, std::abs(f(x) - std::sin(3.0 * x)));
  }
  EXPECT_LT(max_err, 0.02);
  EXPECT_EQ(f.segments(), 10u);
}

TEST(PiecewiseLinear, RejectsDegenerateConstruction) {
  EXPECT_THROW(PiecewiseLinear({1.0}, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({1.0, 2.0}, 1.0, 1.0), InvalidArgument);
}

/// Builds a synthetic evaluation table where stage confidences follow a
/// known monotone relation: c₂ = g(c₁) + noise, c₃ = h(c₂) + noise.
calib::StagedEvaluation synthetic_eval(std::size_t n, Rng& rng) {
  calib::StagedEvaluation eval;
  eval.records.resize(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double c1 = rng.uniform(0.1, 0.95);
    const double c2 =
        std::min(1.0, 0.3 + 0.7 * c1 + rng.normal(0.0, 0.03));
    const double c3 = std::min(1.0, 0.5 + 0.5 * c2 + rng.normal(0.0, 0.02));
    for (std::size_t s = 0; s < 3; ++s) {
      calib::StageRecord r;
      r.predicted = 0;
      r.truth = 0;
      r.confidence =
          static_cast<float>(std::max(0.0, s == 0 ? c1 : (s == 1 ? c2 : c3)));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

TEST(ConfidenceCurve, LearnsMonotoneStageRelations) {
  Rng rng(3);
  const auto train = synthetic_eval(400, rng);
  ConfidenceCurveModel curves;
  curves.fit(train);
  ASSERT_TRUE(curves.fitted());
  EXPECT_EQ(curves.num_stages(), 3u);
  // Known relation: c₂ ≈ 0.3 + 0.7·c₁.
  EXPECT_NEAR(curves.predict(0, 1, 0.5), 0.65, 0.05);
  EXPECT_NEAR(curves.predict(1, 2, 0.8), 0.9, 0.05);
}

TEST(ConfidenceCurve, PriorsMatchTrainingMeans) {
  Rng rng(4);
  const auto train = synthetic_eval(300, rng);
  ConfidenceCurveModel curves;
  curves.fit(train);
  for (std::size_t s = 0; s < 3; ++s) {
    const auto conf = train.confidence(s);
    double mean = 0.0;
    for (float c : conf) mean += c;
    mean /= static_cast<double>(conf.size());
    EXPECT_NEAR(curves.prior_confidence(s), mean, 1e-9);
  }
}

TEST(ConfidenceCurve, PiecewiseApproximationTracksExactGp) {
  Rng rng(5);
  const auto train = synthetic_eval(300, rng);
  ConfidenceCurveModel curves;
  curves.fit(train);
  const GaussianProcess1D gp = fit_pair_gp(train, 0, 2);
  for (double c = 0.1; c < 1.0; c += 0.1) {
    const double exact = gp.predict(c).mean;
    const double approx = curves.predict(0, 2, c);
    EXPECT_NEAR(approx, std::clamp(exact, 0.0, 1.0), 0.02) << "at c=" << c;
  }
}

TEST(ConfidenceCurve, EvaluationQualityImprovesWithCloserStages) {
  // Mirrors Table III: GP2→3 (one hop, conditioned late) beats GP1→3.
  Rng rng(6);
  const auto train = synthetic_eval(400, rng);
  Rng rng2(7);
  const auto test = synthetic_eval(300, rng2);
  const GaussianProcess1D gp_13 = fit_pair_gp(train, 0, 2);
  const GaussianProcess1D gp_23 = fit_pair_gp(train, 1, 2);
  const auto q_13 =
      evaluate_curve(test, 0, 2, [&](double c) { return gp_13.predict(c).mean; });
  const auto q_23 =
      evaluate_curve(test, 1, 2, [&](double c) { return gp_23.predict(c).mean; });
  EXPECT_LT(q_23.mae, q_13.mae + 0.02);
  EXPECT_GT(q_23.r_squared, 0.5);
}

TEST(ConfidenceCurve, RejectsInvalidStagePairs) {
  Rng rng(8);
  const auto train = synthetic_eval(100, rng);
  ConfidenceCurveModel curves;
  curves.fit(train);
  EXPECT_THROW(curves.predict(1, 1, 0.5), InvalidArgument);
  EXPECT_THROW(curves.predict(2, 1, 0.5), InvalidArgument);
  EXPECT_THROW(curves.predict(0, 3, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace eugene::gp
