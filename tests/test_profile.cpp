// Profiler tests: timing harness sanity, the mobile cost model (Table I
// phenomenon), and piecewise-linear execution-time regression.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "profile/cost_model.hpp"
#include "profile/linear_region.hpp"
#include "profile/timing.hpp"

namespace eugene::profile {
namespace {

tensor::Conv2dGeometry geometry(std::size_t cin, std::size_t cout, std::size_t hw) {
  tensor::Conv2dGeometry g;
  g.in_channels = cin;
  g.out_channels = cout;
  g.in_height = hw;
  g.in_width = hw;
  return g;
}

TEST(Timing, ConvMeasurementIsPositiveAndScalesWithWork) {
  TimingConfig cfg;
  cfg.repeats = 3;
  Rng rng(1);
  const nn::Conv2d small_conv(geometry(4, 4, 8), rng);
  const nn::Conv2d large_conv(geometry(16, 16, 32), rng);
  const double small = measure_layer_ms(small_conv, {4, 8, 8}, cfg);
  const double large = measure_layer_ms(large_conv, {16, 32, 32}, cfg);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

TEST(Timing, LayerMeasurementWorks) {
  Rng rng(1);
  nn::Conv2d layer(geometry(4, 8, 10), rng);
  const double ms = measure_layer_ms(layer, {4, 10, 10});
  EXPECT_GT(ms, 0.0);
}

TEST(CostModel, FitRecoversSyntheticParameters) {
  // Generate measurements from a known model and check the fit predicts it.
  const MobileConvCostModel truth(1e-4, 5e6, 8.0);
  std::vector<ConvMeasurement> data;
  for (std::size_t cin : {4u, 8u, 16u, 32u, 64u})
    for (std::size_t cout : {4u, 8u, 16u, 32u, 64u})
      data.push_back({geometry(cin, cout, 56), truth.predict_ms(geometry(cin, cout, 56))});
  const MobileConvCostModel fitted = MobileConvCostModel::fit(data);
  EXPECT_LT(fitted.mean_relative_error(data), 0.05);
}

TEST(CostModel, Nexus5ReferenceReproducesTable1Orderings) {
  const MobileConvCostModel model = MobileConvCostModel::nexus5_reference();
  const double t1 = model.predict_ms(geometry(8, 32, 224));   // 452.4 MFLOPs
  const double t2 = model.predict_ms(geometry(32, 8, 224));   // 452.4 MFLOPs
  const double t3 = model.predict_ms(geometry(66, 32, 224));  // 3732.3 MFLOPs
  const double t4 = model.predict_ms(geometry(43, 64, 224));  // 4863.3 MFLOPs

  // Table I, row-pair phenomena:
  //   (a) equal FLOPs, very different times (CNN2 much slower than CNN1);
  //   (b) more FLOPs yet *less* time (CNN4 faster than CNN3).
  EXPECT_GT(t2, 1.8 * t1) << "equal-FLOPs gap lost";
  EXPECT_GT(t3, t4) << "FLOPs/time inversion lost";

  // And the fit should be in the right absolute neighbourhood.
  EXPECT_NEAR(t1, 114.9, 60.0);
  EXPECT_NEAR(t3, 908.3, 250.0);
}

TEST(CostModel, FlopsAloneWouldMispredict) {
  // The motivating claim: a FLOPs-proportional model cannot order Table I.
  const auto g1 = geometry(8, 32, 224), g2 = geometry(32, 8, 224);
  EXPECT_DOUBLE_EQ(g1.flops(), g2.flops());
  const MobileConvCostModel model = MobileConvCostModel::nexus5_reference();
  EXPECT_GT(model.predict_ms(g2) / model.predict_ms(g1), 1.5);
}

TEST(CostModel, ValidatesInputs) {
  EXPECT_THROW(MobileConvCostModel(-1.0, 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(MobileConvCostModel::fit({}), InvalidArgument);
}

TEST(PiecewiseLinearModel, FitsASingleLineExactly) {
  const std::size_t n = 40;
  tensor::Tensor x({n, 1});
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    y[i] = 3.0 * static_cast<double>(i) + 2.0;
  }
  PiecewiseLinearModel model;
  model.fit(x, y);
  EXPECT_EQ(model.num_regions(), 1u);  // no split improves a perfect line
  const double row[] = {10.5};
  EXPECT_NEAR(model.predict(row), 3.0 * 10.5 + 2.0, 1e-3);
}

TEST(PiecewiseLinearModel, SplitsPiecewiseData) {
  // y = x for x <= 50, y = 200 − 3x above: one split, two linear regions.
  const std::size_t n = 100;
  tensor::Tensor x({n, 1});
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(i);
    x.at(i, 0) = static_cast<float>(xi);
    y[i] = xi <= 50.0 ? xi : 200.0 - 3.0 * xi;
  }
  PiecewiseLinearModel model;
  model.fit(x, y);
  EXPECT_GE(model.num_regions(), 2u);
  EXPECT_GT(model.r_squared(x, y), 0.98);
  const double left[] = {20.0};
  const double right[] = {80.0};
  EXPECT_NEAR(model.predict(left), 20.0, 3.0);
  EXPECT_NEAR(model.predict(right), 200.0 - 240.0, 6.0);
}

TEST(PiecewiseLinearModel, HandlesMultipleFeatures) {
  Rng rng(2);
  const std::size_t n = 120;
  tensor::Tensor x({n, 2});
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    x.at(i, 0) = static_cast<float>(a);
    x.at(i, 1) = static_cast<float>(b);
    y[i] = 2.0 * a - b + 1.0;
  }
  PiecewiseLinearModel model;
  model.fit(x, y);
  EXPECT_GT(model.r_squared(x, y), 0.99);
}

TEST(PiecewiseLinearModel, ExecutionTimeRegression) {
  // The FastDeepIoT use case: predict conv time from (C_in, C_out, FLOPs)
  // when the generating process is the nonlinear mobile cost model. The
  // spatial size must vary across samples: at a fixed size the cost model
  // is an exact linear combination of C_in and FLOPs, so one region
  // suffices (an earlier version of this test only saw splits because
  // float-rounding noise in least_squares inflated the single-region SSE).
  const MobileConvCostModel truth = MobileConvCostModel::nexus5_reference();
  std::vector<std::array<double, 3>> rows;
  std::vector<double> times;
  for (std::size_t side : {28, 56}) {
    for (std::size_t cin = 4; cin <= 64; cin += 6) {
      for (std::size_t cout = 4; cout <= 64; cout += 6) {
        const auto g = geometry(cin, cout, side);
        rows.push_back({static_cast<double>(cin), static_cast<double>(cout), g.flops()});
        times.push_back(truth.predict_ms(g));
      }
    }
  }
  tensor::Tensor x({rows.size(), 3});
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < 3; ++j) x.at(i, j) = static_cast<float>(rows[i][j]);

  PiecewiseLinearModel piecewise;
  RegionModelConfig cfg;
  cfg.max_depth = 3;
  piecewise.fit(x, times, cfg);
  EXPECT_GT(piecewise.r_squared(x, times), 0.95);
  EXPECT_GE(piecewise.num_regions(), 2u)
      << "nonlinear cost surface should need more than one linear region";
}

TEST(PiecewiseLinearModel, ValidatesInputs) {
  PiecewiseLinearModel model;
  EXPECT_THROW(model.predict(std::vector<double>{1.0}), InvalidArgument);
  tensor::Tensor x({3, 1});
  std::vector<double> y(2);
  EXPECT_THROW(model.fit(x, y), InvalidArgument);
}

}  // namespace
}  // namespace eugene::profile
