// Property-based and parameterized sweeps over the core invariants:
//   * conv/pooling gradients hold across a geometry grid (TEST_P);
//   * softmax/ECE/entropy invariants hold for random distributions;
//   * the DES scheduler preserves conservation laws for every policy × load;
//   * GP predictions are sane across random monotone curve families;
//   * ChannelNorm and the pools match the scalar code they replaced, bit for
//     bit, on every ISA arm.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "calib/ece.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gp/gaussian_process.hpp"
#include "nn/layers.hpp"
#include "nn/residual.hpp"
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
  nn::Conv2d conv(g, rng);
  conv.weights() = w;
  conv.bias() = b;
  const tensor::Tensor slow = tensor::conv2d_direct(img, w, b, g);
  // Both routes of the served layer: infer and the training forward.
  for (const tensor::Tensor& fast : {nn::infer(conv, img), conv.forward(img)}) {
    ASSERT_TRUE(fast.same_shape(slow));
    for (std::size_t i = 0; i < fast.numel(); ++i)
      ASSERT_NEAR(fast.data()[i], slow.data()[i], 1e-3) << "element " << i;
  }
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

// ------------------------------------------------------------------------
// ChannelNorm, GlobalAvgPool and MaxPool2 against the scalar loops they
// replaced. forward() and infer() share one body per ISA level, so their
// equality cannot catch a changed lane count, combine order or pool order,
// or a multiply-add contracted into an FMA; these references can. Each arm
// is checked through plane_kernels_with_isa, and the layers on the active
// arm (EUGENE_GEMM_ISA picks it).
// ------------------------------------------------------------------------

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::vector<tensor::GemmIsa> available_isas() {
  std::vector<tensor::GemmIsa> out;
  for (const auto isa : {tensor::GemmIsa::kScalar, tensor::GemmIsa::kAvx2})
    if (tensor::gemm_isa_available(isa)) out.push_back(isa);
  return out;
}

// ChannelNorm's per-plane core before the vector bodies, verbatim.
void channel_norm_plane(const float* xc, std::size_t hw, float epsilon, float g,
                        float b, float* out, float* xhat_out, float* inv_std_out) {
  double lane[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= hw; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lane[l] += xc[i + l];
  for (; i < hw; ++i) lane[i % 8] += xc[i];
  double mean = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  mean /= static_cast<double>(hw);
  for (std::size_t l = 0; l < 8; ++l) lane[l] = 0.0;
  i = 0;
  for (; i + 8 <= hw; i += 8)
    for (std::size_t l = 0; l < 8; ++l) {
      const double d = xc[i + l] - mean;
      lane[l] += d * d;
    }
  for (; i < hw; ++i) {
    const double d = xc[i] - mean;
    lane[i % 8] += d * d;
  }
  double var = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  var /= static_cast<double>(hw);
  const float inv_std = static_cast<float>(1.0 / std::sqrt(var + epsilon));
  if (inv_std_out != nullptr) *inv_std_out = inv_std;
  for (std::size_t i = 0; i < hw; ++i) {
    const float xhat = (xc[i] - static_cast<float>(mean)) * inv_std;
    if (xhat_out != nullptr) xhat_out[i] = xhat;
    out[i] = g * xhat + b;
  }
}

float relu(float v) { return v > 0.0f ? v : 0.0f; }

const std::vector<std::pair<std::size_t, std::size_t>> kPlanes = {
    {1, 1}, {3, 5}, {4, 4}, {7, 9}, {8, 8}, {16, 16}};

// (channels, plane, cancelling). A cancelling plane opens each 16 floats
// with ±2^40-scale pairs four apart, then eight values in [0, 1): each of
// the eight double lanes rounds the small values against a large running
// sum, and the large ones cancel only in the combine, so another lane count
// or combine order moves the mean by far more than a float ulp.
class ChannelNormSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::pair<std::size_t, std::size_t>, bool>> {};

TEST_P(ChannelNormSweep, MatchesScalarReferenceBitwise) {
  const auto [channels, plane, cancelling] = GetParam();
  const std::size_t hw = plane.first * plane.second;
  const std::size_t n = channels * hw;
  Rng rng(channels * 131 + hw * 7 + (cancelling ? 1 : 0));
  tensor::Tensor x({channels, plane.first, plane.second});
  tensor::Tensor shortcut = tensor::Tensor::randn(x.shape(), rng);
  tensor::Tensor gain({channels}), bias({channels});
  for (std::size_t c = 0; c < channels; ++c) {
    gain.at(c) = static_cast<float>(rng.uniform(0.5, 1.5));
    bias.at(c) = cancelling ? 0.0f : static_cast<float>(rng.uniform(-0.5, 0.5));
    const float offset = static_cast<float>(rng.uniform(-3.0, 3.0));
    float* xc = x.raw() + c * hw;
    for (std::size_t i = 0; i < hw; ++i)
      xc[i] = offset + static_cast<float>(rng.normal());
    if (cancelling) {
      for (std::size_t i = 0; i < hw; ++i) xc[i] = static_cast<float>(rng.uniform());
      for (std::size_t i = 0; i + 8 <= hw; i += 16)
        for (std::size_t l = 0; l < 4; ++l) {
          const float big = static_cast<float>(std::ldexp(rng.uniform(1.0, 2.0), 40));
          xc[i + l] = big;
          xc[i + l + 4] = -big;
        }
    }
  }
  const float epsilon = 1e-5f;

  std::vector<float> ref(n), ref_xhat(n), ref_inv_std(channels);
  std::vector<float> ref_relu(n), ref_block(n);
  for (std::size_t c = 0; c < channels; ++c)
    channel_norm_plane(x.raw() + c * hw, hw, epsilon, gain.at(c), bias.at(c),
                       ref.data() + c * hw, ref_xhat.data() + c * hw, &ref_inv_std[c]);
  for (std::size_t i = 0; i < n; ++i) {
    ref_relu[i] = relu(ref[i]);
    ref_block[i] = relu(ref[i] + shortcut.raw()[i]);
  }

  nn::ChannelNorm layer(channels, epsilon);
  const std::vector<nn::ParamRef> params = layer.params();
  *params[0].value = gain;
  *params[1].value = bias;
  EXPECT_TRUE(same_bits(layer.forward(x).raw(), ref.data(), n)) << "forward";
  EXPECT_TRUE(same_bits(nn::infer(layer, x).raw(), ref.data(), n)) << "infer";
  nn::ScratchArena arena;
  const nn::ActivationView in = nn::ActivationView::of(x);
  EXPECT_TRUE(same_bits(layer.infer_folded(in, arena, true).data, ref_relu.data(), n))
      << "norm + relu";
  EXPECT_TRUE(same_bits(layer.infer_folded(in, arena, true, shortcut.raw()).data,
                        ref_block.data(), n))
      << "norm + shortcut + relu";

  for (const tensor::GemmIsa isa : available_isas()) {
    SCOPED_TRACE(tensor::gemm_isa_name(isa));
    std::vector<float> out(n), xhat(n), inv_std(channels);
    tensor::ChannelNormPass pass;
    pass.x = x.raw();
    pass.channels = channels;
    pass.hw = hw;
    pass.epsilon = epsilon;
    pass.gain = gain.raw();
    pass.bias = bias.raw();
    pass.out = out.data();
    pass.xhat = xhat.data();
    pass.inv_std = inv_std.data();
    tensor::plane_kernels_with_isa(isa).channel_norm(pass);
    EXPECT_TRUE(same_bits(out.data(), ref.data(), n)) << "out";
    EXPECT_TRUE(same_bits(xhat.data(), ref_xhat.data(), n)) << "xhat";
    EXPECT_TRUE(same_bits(inv_std.data(), ref_inv_std.data(), channels)) << "inv_std";
    pass.xhat = nullptr;
    pass.inv_std = nullptr;
    pass.relu = true;
    tensor::plane_kernels_with_isa(isa).channel_norm(pass);
    EXPECT_TRUE(same_bits(out.data(), ref_relu.data(), n)) << "relu";
    pass.shortcut = shortcut.raw();
    tensor::plane_kernels_with_isa(isa).channel_norm(pass);
    EXPECT_TRUE(same_bits(out.data(), ref_block.data(), n)) << "shortcut + relu";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChannelNormSweep,
    ::testing::Combine(::testing::Values(1, 3, 8, 9, 16, 32),
                       ::testing::ValuesIn(kPlanes), ::testing::Bool()));

// The block's two folded norms end to end, on the served block shapes (the
// AVX2 arm's vector path) and on planes with a lane tail (its scalar
// fallback): ResidualBlock::infer against its training forward.
TEST(FoldedNorm, ResidualBlockInferMatchesForwardBitwise) {
  for (const auto& [channels, side_h, side_w] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 16, 16}, {16, 8, 8},
        {32, 4, 4}, {3, 7, 9}}) {
    Rng rng(channels);
    nn::ResidualBlock block(channels, side_h, side_w, rng);
    const tensor::Tensor x = tensor::Tensor::randn({channels, side_h, side_w}, rng);
    const tensor::Tensor want = block.forward(x);
    EXPECT_TRUE(same_bits(nn::infer(block, x).raw(), want.raw(), want.numel()))
        << channels << " channels";
  }
}

class GlobalAvgPoolSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::pair<std::size_t, std::size_t>>> {};

TEST_P(GlobalAvgPoolSweep, MatchesSerialFloatSumBitwise) {
  const auto [channels, plane] = GetParam();
  const std::size_t hw = plane.first * plane.second;
  Rng rng(channels * 17 + hw);
  const tensor::Tensor x =
      tensor::Tensor::randn({channels, plane.first, plane.second}, rng);
  std::vector<float> ref(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += x.raw()[c * hw + i];
    ref[c] = acc / static_cast<float>(hw);
  }
  nn::GlobalAvgPool layer;
  EXPECT_TRUE(same_bits(layer.forward(x).raw(), ref.data(), channels)) << "forward";
  EXPECT_TRUE(same_bits(nn::infer(layer, x).raw(), ref.data(), channels)) << "infer";
  for (const tensor::GemmIsa isa : available_isas()) {
    std::vector<float> out(channels);
    tensor::plane_kernels_with_isa(isa).global_avg_pool(x.raw(), channels, hw,
                                                        out.data());
    EXPECT_TRUE(same_bits(out.data(), ref.data(), channels))
        << tensor::gemm_isa_name(isa);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GlobalAvgPoolSweep,
    ::testing::Combine(::testing::Values(1, 3, 8, 10, 32),
                       ::testing::Values(std::make_pair(1, 1), std::make_pair(3, 5),
                                         std::make_pair(7, 9), std::make_pair(5, 13),
                                         std::make_pair(4, 4), std::make_pair(16, 16))));

// Planes whose output widths cover the AVX2 body's eight- and four-window
// steps and its scalar tail, odd extents included.
class MaxPool2Sweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::pair<std::size_t, std::size_t>>> {};

TEST_P(MaxPool2Sweep, KeepsFirstGreaterBitwise) {
  const auto [channels, plane] = GetParam();
  const auto [height, width] = plane;
  const std::size_t oh = height / 2, ow = width / 2, n = channels * oh * ow;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Ties, both zeros and NaNs are common draws; round nan_at also plants a
  // NaN at window position nan_at (row-major) of every window.
  const float draws[] = {-1.0f, -0.0f, 0.0f, 1.0f, 2.0f, 2.0f, nan};
  Rng rng(channels * 29 + height * 5 + width);
  for (int nan_at = -1; nan_at < 4; ++nan_at) {
    SCOPED_TRACE(nan_at);
    tensor::Tensor x({channels, height, width});
    for (std::size_t i = 0; i < x.numel(); ++i) x.raw()[i] = draws[rng.uniform_int(0, 6)];
    std::vector<float> ref(n);
    for (std::size_t c = 0; c < channels; ++c)
      for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t xo = 0; xo < ow; ++xo) {
          float* w = x.raw() + (c * height + 2 * y) * width + 2 * xo;
          float* window[4] = {w, w + 1, w + width, w + width + 1};
          if (nan_at >= 0) *window[nan_at] = nan;
          float best = *window[0];
          for (float* v : window)
            if (*v > best) best = *v;
          ref[(c * oh + y) * ow + xo] = best;
        }
    nn::MaxPool2 layer;
    EXPECT_TRUE(same_bits(layer.forward(x).raw(), ref.data(), n)) << "forward";
    EXPECT_TRUE(same_bits(nn::infer(layer, x).raw(), ref.data(), n)) << "infer";
    for (const tensor::GemmIsa isa : available_isas()) {
      std::vector<float> out(n);
      tensor::plane_kernels_with_isa(isa).max_pool_2x2(x.raw(), channels, height, width,
                                                 out.data());
      EXPECT_TRUE(same_bits(out.data(), ref.data(), n)) << tensor::gemm_isa_name(isa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaxPool2Sweep,
    ::testing::Combine(
        ::testing::Values(1, 3, 8, 9),
        ::testing::Values(std::make_pair(2, 2), std::make_pair(3, 5),
                          std::make_pair(5, 9), std::make_pair(8, 8),
                          std::make_pair(9, 17), std::make_pair(16, 16),
                          std::make_pair(7, 25), std::make_pair(5, 27),
                          std::make_pair(6, 33))));

}  // namespace
}  // namespace eugene
