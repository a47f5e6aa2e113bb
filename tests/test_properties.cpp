// Property-based and parameterized sweeps over the core invariants:
//   * conv/pooling gradients hold across a geometry grid (TEST_P);
//   * softmax/ECE/entropy invariants hold for random distributions;
//   * the DES scheduler preserves conservation laws for every policy × load;
//   * GP predictions are sane across random monotone curve families.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "calib/ece.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gp/gaussian_process.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "sched/simulator.hpp"
#include "tensor/ops.hpp"

namespace eugene {
namespace {

// ------------------------------------------------------------------------
// Conv2d forward equivalence + gradient adjointness across geometries.
// ------------------------------------------------------------------------

struct ConvCase {
  std::size_t cin, cout, h, w, kernel, stride, padding;
};

class ConvGeometrySweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometrySweep, Im2colMatchesDirect) {
  const ConvCase c = GetParam();
  tensor::Conv2dGeometry g;
  g.in_channels = c.cin;
  g.out_channels = c.cout;
  g.in_height = c.h;
  g.in_width = c.w;
  g.kernel = c.kernel;
  g.stride = c.stride;
  g.padding = c.padding;
  Rng rng(c.cin * 131 + c.cout * 17 + c.h);
  const tensor::Tensor img = tensor::Tensor::randn({c.cin, c.h, c.w}, rng);
  const tensor::Tensor w =
      tensor::Tensor::randn({c.cout, c.cin * c.kernel * c.kernel}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({c.cout}, rng);
  const tensor::Tensor fast = tensor::conv2d(img, w, b, g);
  const tensor::Tensor slow = tensor::conv2d_direct(img, w, b, g);
  ASSERT_TRUE(fast.same_shape(slow));
  for (std::size_t i = 0; i < fast.numel(); ++i)
    ASSERT_NEAR(fast.data()[i], slow.data()[i], 1e-3) << "element " << i;
}

TEST_P(ConvGeometrySweep, Im2colMatchesNaiveUnroll) {
  // im2col is pure data movement, so every column entry must equal the
  // image pixel its window covers, or exactly 0 in the padding.
  const ConvCase c = GetParam();
  tensor::Conv2dGeometry g;
  g.in_channels = c.cin;
  g.out_channels = c.cout;
  g.in_height = c.h;
  g.in_width = c.w;
  g.kernel = c.kernel;
  g.stride = c.stride;
  g.padding = c.padding;
  Rng rng(c.cin * 7 + c.w);
  const tensor::Tensor x = tensor::Tensor::randn({c.cin, c.h, c.w}, rng);
  const tensor::Tensor cols = tensor::im2col(x, g);
  const std::size_t oh = g.out_height(), ow = g.out_width();
  for (std::size_t ch = 0; ch < c.cin; ++ch)
    for (std::size_t ky = 0; ky < c.kernel; ++ky)
      for (std::size_t kx = 0; kx < c.kernel; ++kx)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long iy = static_cast<long long>(oy * c.stride + ky) -
                                 static_cast<long long>(c.padding);
            const long long ix = static_cast<long long>(ox * c.stride + kx) -
                                 static_cast<long long>(c.padding);
            const bool inside = iy >= 0 && ix >= 0 &&
                                iy < static_cast<long long>(c.h) &&
                                ix < static_cast<long long>(c.w);
            const float want =
                inside ? x.at(ch, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix))
                       : 0.0f;
            ASSERT_EQ(cols.at((ch * c.kernel + ky) * c.kernel + kx, oy * ow + ox),
                      want)
                << "c=" << ch << " ky=" << ky << " kx=" << kx << " oy=" << oy
                << " ox=" << ox;
          }
}

TEST_P(ConvGeometrySweep, Col2imAdjointIdentity) {
  // <im2col(x), y> == <x, col2im(y)> must hold for every geometry: it is
  // exactly the identity the conv backward pass relies on.
  const ConvCase c = GetParam();
  tensor::Conv2dGeometry g;
  g.in_channels = c.cin;
  g.out_channels = c.cout;
  g.in_height = c.h;
  g.in_width = c.w;
  g.kernel = c.kernel;
  g.stride = c.stride;
  g.padding = c.padding;
  Rng rng(c.cin * 31 + c.h * 7 + c.stride);
  const tensor::Tensor x = tensor::Tensor::randn({c.cin, c.h, c.w}, rng);
  const tensor::Tensor cols = tensor::im2col(x, g);
  const tensor::Tensor y = tensor::Tensor::randn(cols.shape(), rng);
  const tensor::Tensor back = tensor::col2im(y, g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) lhs += cols.data()[i] * y.data()[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += x.data()[i] * back.data()[i];
  EXPECT_NEAR(lhs, rhs, std::max(1e-2, std::abs(lhs) * 1e-4));
}

// The last three are the "same" 3×3 stride-1 planes im2col copies at
// compile-time extents (the served 8×8 and 16×16, and 4×4 with more than
// one channel).
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(ConvCase{1, 1, 4, 4, 3, 1, 1}, ConvCase{2, 3, 5, 7, 3, 1, 1},
                      ConvCase{3, 2, 8, 8, 3, 2, 1}, ConvCase{4, 4, 6, 6, 1, 1, 0},
                      ConvCase{2, 5, 9, 5, 5, 1, 2}, ConvCase{3, 3, 7, 7, 3, 3, 1},
                      ConvCase{1, 8, 4, 4, 3, 1, 0}, ConvCase{8, 1, 10, 10, 3, 2, 1},
                      ConvCase{3, 4, 8, 8, 3, 1, 1}, ConvCase{2, 3, 16, 16, 3, 1, 1},
                      ConvCase{5, 2, 4, 4, 3, 1, 1}));

// ------------------------------------------------------------------------
// Loss gradients across random logits / labels / alphas.
// ------------------------------------------------------------------------

class LossGradientSweep : public ::testing::TestWithParam<int> {};

TEST_P(LossGradientSweep, EntropyRegularizedGradMatchesNumeric) {
  Rng rng(GetParam());
  const std::size_t classes = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const tensor::Tensor logits = tensor::Tensor::randn({classes}, rng, 2.0f);
  const std::size_t label =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(classes) - 1));
  const double alpha = rng.uniform(-1.5, 1.5);
  const nn::LossResult res = nn::cross_entropy_with_entropy_reg(logits, label, alpha);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < classes; ++i) {
    tensor::Tensor plus = logits, minus = logits;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double numeric =
        (nn::cross_entropy_with_entropy_reg(plus, label, alpha).value -
         nn::cross_entropy_with_entropy_reg(minus, label, alpha).value) /
        (2.0 * eps);
    EXPECT_NEAR(res.grad_logits.at(i), numeric, 2e-3)
        << "class " << i << " alpha " << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossGradientSweep, ::testing::Range(1, 13));

// ------------------------------------------------------------------------
// Softmax / entropy / ECE invariants on random inputs.
// ------------------------------------------------------------------------

class DistributionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistributionSweep, SoftmaxIsADistributionAndShiftInvariant) {
  Rng rng(GetParam() * 97);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 20));
  std::vector<float> logits(n);
  for (auto& v : logits) v = static_cast<float>(rng.normal(0, 5));
  const auto p = softmax(logits);
  double sum = 0.0;
  for (float v : p) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // Shift invariance.
  std::vector<float> shifted = logits;
  for (auto& v : shifted) v += 123.0f;
  const auto q = softmax(shifted);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(p[i], q[i], 1e-5);
  // Entropy bounds: 0 <= H <= log n.
  const double h = entropy(p);
  EXPECT_GE(h, -1e-9);
  EXPECT_LE(h, std::log(static_cast<double>(n)) + 1e-9);
}

TEST_P(DistributionSweep, EceIsBoundedAndZeroForOracleConfidence) {
  Rng rng(GetParam() * 31 + 5);
  const std::size_t n = 200;
  std::vector<std::size_t> pred(n), truth(n);
  std::vector<float> conf(n);
  for (std::size_t i = 0; i < n; ++i) {
    pred[i] = static_cast<std::size_t>(rng.uniform_int(0, 4));
    truth[i] = static_cast<std::size_t>(rng.uniform_int(0, 4));
    conf[i] = static_cast<float>(rng.uniform());
  }
  const double ece = calib::expected_calibration_error(pred, truth, conf);
  EXPECT_GE(ece, 0.0);
  EXPECT_LE(ece, 1.0);

  // Oracle confidence (1 when right, 0 when wrong) has zero ECE: both the
  // top bin (acc 1, conf 1) and the bottom bin (acc 0, conf 0) match.
  std::vector<float> oracle(n);
  for (std::size_t i = 0; i < n; ++i) oracle[i] = pred[i] == truth[i] ? 1.0f : 0.0f;
  EXPECT_NEAR(calib::expected_calibration_error(pred, truth, oracle), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionSweep, ::testing::Range(1, 9));

// ------------------------------------------------------------------------
// Scheduler conservation laws for every policy under varying load.
// ------------------------------------------------------------------------

struct SimCase {
  int policy;  ///< 0 greedy, 1 RR, 2 FIFO, 3 EDF
  /// Not read by the test. gtest prints SimCase byte by byte, and those bytes
  /// are the case's ctest name. These four bytes used to be padding, so four
  /// names held leftover stack bytes that changed with every build. The field
  /// fixes them to the bytes the names were first registered with.
  std::uint32_t name_bytes;
  std::size_t workers;
  std::size_t tasks;
  double deadline_ms;
};
static_assert(sizeof(SimCase) == 32, "SimCase must have no padding bytes");

class SimulatorSweep : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorSweep, ConservationInvariantsHold) {
  const SimCase c = GetParam();
  Rng rng(c.workers * 1000 + c.tasks + static_cast<std::size_t>(c.deadline_ms));
  std::vector<sched::TaskSpec> tasks;
  for (std::size_t i = 0; i < c.tasks; ++i) {
    sched::TaskSpec t;
    t.service = i % 3;
    t.arrival_ms = rng.uniform(0.0, 100.0);
    t.deadline_ms = t.arrival_ms + c.deadline_ms;
    for (std::size_t s = 0; s < 3; ++s) {
      sched::StageOutcome o;
      o.confidence = rng.uniform(0.2, 1.0);
      o.correct = rng.bernoulli(o.confidence);
      t.stages.push_back(o);
    }
    tasks.push_back(std::move(t));
  }

  // Priors for the greedy estimator.
  sched::ConstantSlopeEstimator estimator({0.5, 0.7, 0.85}, 0.1);
  std::unique_ptr<sched::SchedulingPolicy> policy;
  switch (c.policy) {
    case 0: policy = std::make_unique<sched::GreedyUtilityPolicy>(estimator, 2); break;
    case 1: policy = std::make_unique<sched::RoundRobinPolicy>(); break;
    case 2: policy = std::make_unique<sched::FifoPolicy>(); break;
    default: policy = std::make_unique<sched::EarliestDeadlinePolicy>(); break;
  }

  sched::SimulationConfig cfg;
  cfg.num_workers = c.workers;
  const sched::SimulationResult r = simulate(tasks, *policy, {8.0, 8.0, 8.0}, cfg);

  // (1) every task is accounted for exactly once.
  std::size_t accounted = 0;
  for (const auto& svc : r.services) accounted += svc.tasks;
  EXPECT_EQ(accounted, c.tasks);

  // (2) exit histogram partitions the tasks.
  std::size_t hist_total = 0;
  for (std::size_t v : r.exit_stage_histogram) hist_total += v;
  EXPECT_EQ(hist_total, c.tasks);

  // (3) completed stage work fits inside worker capacity over the makespan
  //     (aborted stages occupy workers only until their deadline, so they
  //     are excluded from this lower-bound accounting).
  std::size_t stages = 0;
  for (const auto& svc : r.services) stages += svc.stages_executed;
  const double busy_ms = 8.0 * static_cast<double>(stages);
  EXPECT_LE(busy_ms,
            r.makespan_ms * static_cast<double>(c.workers) + 8.0 * c.workers + 1e-6);

  // (4) correctness counts never exceed task counts.
  for (const auto& svc : r.services) EXPECT_LE(svc.correct, svc.tasks);

  // (5) no task executed more stages than exist.
  EXPECT_LE(stages, 3 * c.tasks);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyLoadGrid, SimulatorSweep,
    ::testing::Values(SimCase{0, 0x7FFE, 1, 12, 40.0}, SimCase{0, 0, 4, 40, 25.0},
                      SimCase{0, 0x0F, 2, 25, 1e6}, SimCase{1, 0x55E5, 1, 12, 40.0},
                      SimCase{1, 0x7FFE, 4, 40, 25.0}, SimCase{2, 0x55E5, 1, 12, 40.0},
                      SimCase{2, 0, 3, 30, 30.0}, SimCase{3, 0, 2, 20, 50.0},
                      SimCase{3, 0, 4, 40, 15.0}, SimCase{0, 0, 8, 60, 20.0}));

// ------------------------------------------------------------------------
// GP sanity across random monotone curve families.
// ------------------------------------------------------------------------

class GpCurveSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpCurveSweep, PosteriorMeanInterpolatesAndStaysBounded) {
  Rng rng(GetParam() * 773);
  // Random monotone curve y = a + b·x^c on [0,1], with noise.
  const double a = rng.uniform(0.0, 0.3);
  const double b = rng.uniform(0.3, 0.7);
  const double cexp = rng.uniform(0.5, 2.0);
  std::vector<double> x, y;
  for (int i = 0; i <= 80; ++i) {
    const double xi = static_cast<double>(i) / 80.0;
    x.push_back(xi);
    y.push_back(a + b * std::pow(xi, cexp) + rng.normal(0.0, 0.02));
  }
  gp::GaussianProcess1D gp;
  gp.fit(x, y);
  for (double q = 0.05; q < 1.0; q += 0.1) {
    const gp::GpPrediction p = gp.predict(q);
    EXPECT_NEAR(p.mean, a + b * std::pow(q, cexp), 0.08) << "q=" << q;
    EXPECT_GE(p.stddev, 0.0);
    EXPECT_LT(p.stddev, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpCurveSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace eugene
