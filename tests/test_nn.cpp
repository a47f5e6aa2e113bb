// Neural-network library tests: numerical gradient checks for every layer
// and loss, optimizer behaviour, staged-model mechanics, serialization, and
// a small end-to-end learning smoke test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/synthetic_images.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/residual.hpp"
#include "nn/serialize.hpp"
#include "nn/staged_model.hpp"
#include "nn/train.hpp"

namespace eugene::nn {
namespace {

using tensor::Tensor;

/// Scalar probe loss: L = Σ output_i · c_i for a fixed random c, so
/// dL/doutput = c and we can numerically check input & parameter gradients.
double probe_loss(const Tensor& out, const Tensor& coeffs) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i)
    acc += static_cast<double>(out.data()[i]) * static_cast<double>(coeffs.data()[i]);
  return acc;
}

/// Checks layer input and parameter gradients against central differences
/// of the layer's inference output.
void check_gradients(Layer& layer, const tensor::Shape& input_shape, Rng& rng,
                     double tolerance = 2e-2) {
  Tensor input = Tensor::randn(input_shape, rng);
  Tensor probe_out = infer(layer, input);
  const Tensor coeffs = Tensor::randn(probe_out.shape(), rng);

  zero_grads(layer.params());
  // backward() reads what the preceding training forward kept.
  layer.forward(input);
  const Tensor grad_in = layer.backward(coeffs);

  const float eps = 1e-3f;
  // Input gradient.
  for (std::size_t i = 0; i < input.numel(); ++i) {
    Tensor plus = input, minus = input;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double lp = probe_loss(infer(layer, plus), coeffs);
    const double lm = probe_loss(infer(layer, minus), coeffs);
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric, tolerance)
        << layer.name() << " input grad at " << i;
  }
  // Parameter gradients (spot-check a handful per tensor to keep tests fast).
  // The probes above ran inference, which leaves the accumulated gradients
  // of the backward pass untouched.
  for (auto& p : layer.params()) {
    const std::size_t n = p.value->numel();
    const std::size_t step = std::max<std::size_t>(1, n / 7);
    for (std::size_t i = 0; i < n; i += step) {
      const float original = p.value->data()[i];
      p.value->data()[i] = original + eps;
      const double lp = probe_loss(infer(layer, input), coeffs);
      p.value->data()[i] = original - eps;
      const double lm = probe_loss(infer(layer, input), coeffs);
      p.value->data()[i] = original;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p.grad->data()[i], numeric, tolerance)
          << layer.name() << " param grad at " << i;
    }
  }
}

TEST(GradCheck, Dense) {
  Rng rng(1);
  Dense layer(6, 4, rng);
  check_gradients(layer, {6}, rng);
}

TEST(GradCheck, Conv2d) {
  Rng rng(2);
  tensor::Conv2dGeometry g;
  g.in_channels = 2;
  g.out_channels = 3;
  g.in_height = 5;
  g.in_width = 4;
  Conv2d layer(g, rng);
  check_gradients(layer, {2, 5, 4}, rng);
}

// nn::Conv2d against the direct-convolution oracle, through infer and the
// training forward.
tensor::Conv2dGeometry small_geometry() {
  tensor::Conv2dGeometry g;
  g.in_channels = 3;
  g.out_channels = 4;
  g.in_height = 6;
  g.in_width = 5;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  return g;
}

void expect_conv_matches_direct(const tensor::Conv2dGeometry& g, const Tensor& img,
                                const Tensor& w, const Tensor& b) {
  Rng rng(0);
  Conv2d conv(g, rng);
  conv.weights() = w;
  conv.bias() = b;
  const Tensor slow = tensor::conv2d_direct(img, w, b, g);
  for (const Tensor& fast : {infer(conv, img), conv.forward(img)}) {
    ASSERT_TRUE(fast.same_shape(slow));
    for (std::size_t i = 0; i < fast.numel(); ++i)
      EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-4);
  }
}

TEST(Conv2d, Im2colMatchesDirectConvolution) {
  Rng rng(11);
  const tensor::Conv2dGeometry g = small_geometry();
  const Tensor img = Tensor::randn({3, 6, 5}, rng);
  const Tensor w = Tensor::randn({4, 27}, rng);
  const Tensor b = Tensor::randn({4}, rng);
  expect_conv_matches_direct(g, img, w, b);
}

TEST(Conv2d, StridedConvolutionMatchesDirect) {
  Rng rng(13);
  tensor::Conv2dGeometry g = small_geometry();
  g.stride = 2;
  g.padding = 0;
  const Tensor img = Tensor::randn({3, 6, 5}, rng);
  const Tensor w = Tensor::randn({4, 27}, rng);
  const Tensor b = Tensor::randn({4}, rng);
  expect_conv_matches_direct(g, img, w, b);
}

TEST(GradCheck, ReLU) {
  Rng rng(3);
  ReLU layer;
  check_gradients(layer, {10}, rng);
}

TEST(GradCheck, ChannelNorm) {
  Rng rng(4);
  ChannelNorm layer(3);
  check_gradients(layer, {3, 4, 4}, rng, 5e-2);
}

TEST(GradCheck, Flatten) {
  Rng rng(5);
  Flatten layer;
  check_gradients(layer, {2, 3, 2}, rng);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(6);
  GlobalAvgPool layer;
  check_gradients(layer, {3, 4, 4}, rng);
}

TEST(GradCheck, MaxPool2) {
  Rng rng(7);
  MaxPool2 layer;
  check_gradients(layer, {2, 4, 4}, rng);
}

TEST(GradCheck, ResidualBlock) {
  Rng rng(8);
  ResidualBlock layer(3, 4, 4, rng);
  check_gradients(layer, {3, 4, 4}, rng, 5e-2);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(9);
  Sequential seq;
  seq.add(std::make_unique<Dense>(5, 7, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(7, 3, rng));
  check_gradients(seq, {5}, rng);
}

TEST(GradCheck, CrossEntropyLoss) {
  Rng rng(10);
  const Tensor logits = Tensor::randn({5}, rng);
  const std::size_t label = 2;
  const LossResult res = cross_entropy_with_entropy_reg(logits, label);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 5; ++i) {
    Tensor plus = logits, minus = logits;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double numeric =
        (cross_entropy_with_entropy_reg(plus, label).value -
         cross_entropy_with_entropy_reg(minus, label).value) /
        (2.0 * eps);
    EXPECT_NEAR(res.grad_logits.at(i), numeric, 1e-3);
  }
}

TEST(GradCheck, EntropyRegularizedLoss) {
  Rng rng(11);
  const Tensor logits = Tensor::randn({6}, rng);
  for (double alpha : {-0.3, 0.2}) {
    const LossResult res = cross_entropy_with_entropy_reg(logits, 1, alpha);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < 6; ++i) {
      Tensor plus = logits, minus = logits;
      plus.data()[i] += eps;
      minus.data()[i] -= eps;
      const double numeric =
          (cross_entropy_with_entropy_reg(plus, 1, alpha).value -
           cross_entropy_with_entropy_reg(minus, 1, alpha).value) /
          (2.0 * eps);
      EXPECT_NEAR(res.grad_logits.at(i), numeric, 1e-3) << "alpha " << alpha;
    }
  }
}

TEST(Pooling, MaxPool2PicksMaxima) {
  Tensor img({1, 2, 4}, std::vector<float>{1, 5, 2, 0, 3, 4, 8, 7});
  const Tensor out = infer(MaxPool2(), img);
  ASSERT_EQ(out.shape(), (tensor::Shape{1, 1, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 5.0f);
  EXPECT_EQ(out.at(0, 0, 1), 8.0f);
}

// backward() finds each window's kept element again, so pin it to the one
// infer() returned on the windows random draws never make: a tie, -0 beside
// +0, and a NaN first or later.
TEST(Pooling, MaxPool2GradientGoesToTheKeptElement) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Four 2×2 windows side by side: window w covers columns 2w and 2w + 1.
  //                              tie    -0, +0       NaN first  NaN later
  const Tensor img({1, 2, 8}, std::vector<float>{1, 3, -1, -0.0f, nan, 5, 2, nan,  //
                                                 2, 3, 0.0f, -2, 7, 1, 4, 3});
  const std::size_t kept[4] = {1, 1, 0, 2};  // row-major position in the window
  MaxPool2 pool;
  pool.forward(img);
  const Tensor out = infer(pool, img);
  const Tensor grad_in = pool.backward(Tensor({1, 1, 4}, std::vector<float>{1, 2, 3, 4}));
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t pos = 0; pos < 4; ++pos) {
      const std::size_t i = (pos / 2) * 8 + 2 * w + pos % 2;
      if (pos != kept[w]) {
        EXPECT_EQ(grad_in.data()[i], 0.0f) << "window " << w << " position " << pos;
        continue;
      }
      EXPECT_EQ(grad_in.data()[i], static_cast<float>(w + 1)) << "window " << w;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(img.data()[i]),
                std::bit_cast<std::uint32_t>(out.data()[w]))
          << "window " << w << ": the gradient's element is not the one infer() kept";
    }
  }
}

TEST(Loss, EntropyRegularizationShiftsConfidence) {
  // With L = CE + α·H: positive α penalizes entropy, so gradient descent
  // pushes the top logit up harder (sharper distribution, higher
  // confidence); negative α does the opposite.
  Tensor logits({4}, std::vector<float>{3.0f, 0.1f, 0.0f, -0.2f});
  const auto plain = cross_entropy_with_entropy_reg(logits, 0);
  const auto sharpen = cross_entropy_with_entropy_reg(logits, 0, 0.5);
  const auto soften = cross_entropy_with_entropy_reg(logits, 0, -0.5);
  EXPECT_LT(sharpen.grad_logits.at(0), plain.grad_logits.at(0));
  EXPECT_GT(soften.grad_logits.at(0), plain.grad_logits.at(0));
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(13);
  const Dropout layer(0.5f, 77);
  const Tensor x = Tensor::randn({20}, rng);
  const Tensor y = infer(layer, x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x.data()[i], y.data()[i]);
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout layer(0.5f, 78);
  Tensor x({1000}, 1.0f);
  const Tensor y = layer.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0f) ++zeros;
    sum += v;
  }
  EXPECT_GT(zeros, 350u);
  EXPECT_LT(zeros, 650u);
  // Inverted dropout keeps the expectation roughly constant.
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

TEST(Optimizer, StepReducesQuadraticLoss) {
  // Minimize ‖w‖² by gradient descent.
  Tensor w({4}, std::vector<float>{1, -2, 3, -4});
  Tensor g({4});
  SgdConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.momentum = 0.0;
  cfg.weight_decay = 0.0;
  SgdOptimizer opt({{&w, &g}}, cfg);
  for (int it = 0; it < 100; ++it) {
    for (std::size_t i = 0; i < 4; ++i) g.data()[i] = 2.0f * w.data()[i];
    opt.step();
    opt.zero_grads();
  }
  for (float v : w.data()) EXPECT_NEAR(v, 0.0f, 1e-3);
}

TEST(Optimizer, MomentumAcceleratesDescent) {
  auto run = [](double momentum) {
    Tensor w({1}, std::vector<float>{10.0f});
    Tensor g({1});
    SgdConfig cfg;
    cfg.learning_rate = 0.01;
    cfg.momentum = momentum;
    cfg.weight_decay = 0.0;
    SgdOptimizer opt({{&w, &g}}, cfg);
    for (int it = 0; it < 20; ++it) {
      g.data()[0] = 2.0f * w.data()[0];
      opt.step();
      opt.zero_grads();
    }
    return std::abs(w.at(0));
  };
  EXPECT_LT(run(0.9), run(0.0));
}

StagedResNetConfig tiny_config() {
  StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6, 8};
  cfg.blocks_per_stage = 1;
  cfg.seed = 5;
  return cfg;
}

TEST(StagedModel, BuilderProducesRequestedStages) {
  StagedModel model = build_staged_resnet(tiny_config());
  EXPECT_EQ(model.num_stages(), 3u);
  EXPECT_EQ(model.num_classes(), 4u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_GT(model.stage_flops(s), 0.0);
}

TEST(StagedModel, ForwardAllProducesValidDistributions) {
  StagedModel model = build_staged_resnet(tiny_config());
  Rng rng(6);
  const Tensor input = Tensor::randn({2, 8, 8}, rng);
  const auto outputs = model.forward_all(input);
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& out : outputs) {
    ASSERT_EQ(out.probs.size(), 4u);
    double sum = 0.0;
    for (float p : out.probs) {
      EXPECT_GE(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_LT(out.predicted_label, 4u);
    EXPECT_NEAR(out.confidence, out.probs[out.predicted_label], 1e-7);
  }
}

TEST(StagedModel, StageChainingMatchesForwardAll) {
  StagedModel model = build_staged_resnet(tiny_config());
  Rng rng(7);
  const Tensor input = Tensor::randn({2, 8, 8}, rng);
  const auto all = model.forward_all(input);
  const Tensor* cur = &input;
  std::vector<StageOutput> chained;
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    chained.push_back(model.run_stage(s, *cur));
    cur = &chained.back().features;
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(all[s].predicted_label, chained[s].predicted_label);
    EXPECT_FLOAT_EQ(all[s].confidence, chained[s].confidence);
  }
}

/// Walks `x` through every stage, checking that run_stage's features are
/// nn::infer of the trunk and its readout is softmax/argmax of nn::infer of
/// the head, bit for bit: entropy calibration scores heads the second way,
/// curve fitting and serving read run_stage.
void expect_run_stage_matches_infer(const StagedModel& model, Tensor x) {
  for (std::size_t s = 0; s < model.num_stages(); ++s) {
    const StageOutput out = model.run_stage(s, x);
    const Tensor features = infer(model.trunk(s), x);
    ASSERT_TRUE(out.features.same_shape(features)) << s;
    for (std::size_t i = 0; i < features.numel(); ++i)
      EXPECT_EQ(out.features.data()[i], features.data()[i]) << s << "/" << i;
    const std::vector<float> probs = softmax(infer(model.head(s), features).data());
    ASSERT_EQ(out.probs.size(), probs.size()) << s;
    for (std::size_t c = 0; c < probs.size(); ++c)
      EXPECT_EQ(out.probs[c], probs[c]) << s << "/" << c;
    EXPECT_EQ(out.predicted_label, argmax(probs)) << s;
    EXPECT_EQ(out.confidence, probs[argmax(probs)]) << s;
    x = out.features;
  }
}

TEST(StagedModel, RunStageMatchesInferOfTrunkAndHead) {
  Rng rng(21);
  StagedResNetConfig resnet;
  resnet.in_channels = 2;
  resnet.height = 8;
  resnet.width = 8;
  resnet.num_classes = 4;
  resnet.stage_channels = {4, 6};
  resnet.head_hidden = 5;
  resnet.head_dropout = 0.1f;
  expect_run_stage_matches_infer(build_staged_resnet(resnet),
                                 Tensor::randn({2, 8, 8}, rng));
  StagedMlpConfig mlp;
  mlp.input_dim = 2 * 3 * 4;
  mlp.num_classes = 3;
  mlp.stage_widths = {10, 8};
  expect_run_stage_matches_infer(build_staged_mlp(mlp), Tensor::randn({2, 3, 4}, rng));
}

TEST(StagedModel, McDropoutDiffersFromDeterministicAndAveragesOut) {
  StagedResNetConfig cfg = tiny_config();
  cfg.head_dropout = 0.4f;
  StagedModel model = build_staged_resnet(cfg);
  Rng rng(8);
  const Tensor input = Tensor::randn({2, 8, 8}, rng);
  const StageOutput det = model.run_stage(0, input);
  const StageOutput mc = model.run_stage_mc(0, input, 25);
  ASSERT_EQ(mc.probs.size(), det.probs.size());
  double sum = 0.0;
  for (float p : mc.probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // MC averaging flattens the distribution relative to the deterministic
  // pass in general; at minimum it must remain a valid distribution and
  // typically differ.
  bool any_diff = false;
  for (std::size_t i = 0; i < mc.probs.size(); ++i)
    any_diff |= std::abs(mc.probs[i] - det.probs[i]) > 1e-6;
  EXPECT_TRUE(any_diff);
}

TEST(Serialize, RoundTripRestoresOutputs) {
  StagedModel a = build_staged_resnet(tiny_config());
  StagedModel b = build_staged_resnet([] {
    StagedResNetConfig c = tiny_config();
    c.seed = 99;  // different init; weights must come from the stream
    return c;
  }());
  Rng rng(9);
  const Tensor input = Tensor::randn({2, 8, 8}, rng);
  const auto before = a.forward_all(input);

  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  load_params(b.params(), buffer);
  const auto after = b.forward_all(input);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(before[s].predicted_label, after[s].predicted_label);
    EXPECT_NEAR(before[s].confidence, after[s].confidence, 1e-6);
  }
}

TEST(Serialize, ArchitectureMismatchThrows) {
  StagedModel a = build_staged_resnet(tiny_config());
  StagedResNetConfig other = tiny_config();
  other.stage_channels = {4, 6};
  StagedModel b = build_staged_resnet(other);
  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  EXPECT_THROW(load_params(b.params(), buffer), InvalidArgument);
}

TEST(Serialize, SizeAccountsForAllTensors) {
  StagedModel a = build_staged_resnet(tiny_config());
  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  EXPECT_EQ(buffer.str().size(), serialized_size_bytes(a.param_values()));
}

// Adversarial checkpoint loads (DESIGN.md §9): whatever bytes arrive —
// truncated, empty, flipped, foreign, from the future — load_params must
// answer with a typed eugene::Error, never UB, a crash, or silent garbage.
TEST(Serialize, TruncatedAtEveryLengthThrowsTyped) {
  StagedModel a = build_staged_resnet(tiny_config());
  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  const std::string full = buffer.str();

  StagedModel b = build_staged_resnet(tiny_config());
  // Every strict prefix, stepping through the header byte by byte and the
  // body in coarser strides (the body is homogeneous float data).
  for (std::size_t n = 0; n < full.size(); n = n < 64 ? n + 1 : n + 97) {
    std::istringstream cut(full.substr(0, n));
    EXPECT_THROW(load_params(b.params(), cut), Error) << "prefix length " << n;
  }
}

TEST(Serialize, BitFlipsAreDetectedByCrc) {
  StagedModel a = build_staged_resnet(tiny_config());
  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  const std::string full = buffer.str();

  StagedModel b = build_staged_resnet(tiny_config());
  // Flip one bit at a sweep of offsets across header, body, and footer.
  for (std::size_t pos = 0; pos < full.size(); pos += 131) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      std::string flipped = full;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      std::istringstream in(flipped);
      try {
        load_params(b.params(), in);
        ADD_FAILURE() << "accepted a checkpoint with bit " << int(mask)
                      << " flipped at offset " << pos;
      } catch (const Error&) {
        // Typed rejection (CorruptionError from the CRC or length checks)
        // is exactly the contract.
      }
    }
  }
  // The pristine stream still loads after all that.
  std::istringstream in(full);
  EXPECT_NO_THROW(load_params(b.params(), in));
}

TEST(Serialize, EmptyWrongMagicAndFutureVersionThrowTyped) {
  StagedModel b = build_staged_resnet(tiny_config());

  std::istringstream empty("");
  EXPECT_THROW(load_params(b.params(), empty), CorruptionError);

  std::istringstream garbage("this is not a checkpoint at all");
  EXPECT_THROW(load_params(b.params(), garbage), CorruptionError);

  // A legacy EUG1 header is just a wrong magic now: v1 checkpoints are not
  // read.
  std::stringstream legacy;
  const std::uint32_t v1_magic = 0x45554731, v1_count = 0;
  legacy.write(reinterpret_cast<const char*>(&v1_magic), 4);
  legacy.write(reinterpret_cast<const char*>(&v1_count), 4);
  EXPECT_THROW(load_params(b.params(), legacy), CorruptionError);

  // A well-formed v2 header claiming a future version must be refused
  // before any payload is interpreted.
  std::stringstream future;
  const std::uint32_t magic = 0x45554732, version = 99;
  const std::uint64_t len = 0;
  future.write(reinterpret_cast<const char*>(&magic), 4);
  future.write(reinterpret_cast<const char*>(&version), 4);
  future.write(reinterpret_cast<const char*>(&len), 8);
  EXPECT_THROW(load_params(b.params(), future), CorruptionError);
}

TEST(Serialize, SaveFileIsAtomicUnderTornWriteFailpoint) {
  const std::string path =
      "/tmp/eugene_test_ckpt_" + std::to_string(::getpid()) + ".bin";
  StagedModel a = build_staged_resnet(tiny_config());
  save_params_file(a.param_values(), path);

  // Arm a simulated crash halfway through the rewrite: the original file
  // must survive byte-for-byte.
  FailpointSpec spec;
  FailpointRegistry::instance().arm("io.atomic.torn", spec);
  EXPECT_THROW(save_params_file(a.param_values(), path), FailpointError);
  FailpointRegistry::instance().disarm_all();

  StagedModel b = build_staged_resnet([] {
    StagedResNetConfig c = tiny_config();
    c.seed = 123;
    return c;
  }());
  EXPECT_NO_THROW(load_params_file(b.params(), path));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Serialize, FileWithTrailingBytesThrowsTyped) {
  const std::string path =
      "/tmp/eugene_test_ckpt_trail_" + std::to_string(::getpid()) + ".bin";
  StagedModel a = build_staged_resnet(tiny_config());
  save_params_file(a.param_values(), path);
  {
    // A byte appended past the CRC footer cannot corrupt weights, but a
    // file is exactly one checkpoint: loading it must still fail typed.
    std::ofstream append(path, std::ios::binary | std::ios::app);
    append.put('\xff');
  }
  EXPECT_THROW(load_params_file(a.params(), path), CorruptionError);
  std::remove(path.c_str());
}

// The exact bytes of a checkpoint, so a change to how it is written cannot
// change what it writes. The tensors are set by hand, not drawn from Rng:
// std::normal_distribution differs between standard libraries. Byte order is
// native (DESIGN.md §9), so the expected bytes are a little-endian host's.
TEST(Serialize, CheckpointBytesArePinned) {
  Tensor w({2, 3}, {0.5f, -1.0f, 2.0f, 0.0f, -0.25f, 8.0f});
  Tensor b({3}, {1.0f, -2.0f, 0.125f});
  const ParamValues params = {&w, &b};

  std::ostringstream out(std::ios::binary);
  save_params(params, out);
  const std::string written = out.str();
  const std::vector<std::uint8_t> bytes(written.begin(), written.end());
  // [magic "EUG2"][version 2][body length 60][body][crc32(body)], where the
  // body is the tensor count, then per tensor rank, shape and raw floats.
  const std::vector<std::uint8_t> expected = {
      0x32, 0x47, 0x55, 0x45, 0x02, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f,
      0x00, 0x00, 0x80, 0xbf, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x80, 0xbe, 0x00, 0x00, 0x00, 0x41, 0x01, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0,
      0x00, 0x00, 0x00, 0x3e, 0x50, 0xca, 0x8e, 0x0e,
  };
  EXPECT_EQ(bytes, expected);
  EXPECT_EQ(serialized_size_bytes(params), expected.size());

  // A checkpoint is a common/io blob: the blob decoder accepts it as is.
  const io::Blob blob = io::decode_blob(bytes, 0x45554732, 2, "checkpoint");
  EXPECT_EQ(blob.version, 2u);
  EXPECT_EQ(blob.payload,
            std::vector<std::uint8_t>(expected.begin() + 16, expected.end() - 4));
}

TEST(Serialize, StreamWithTrailingBytesThrowsTyped) {
  // load_params consumes its whole stream: bytes after the checkpoint fail
  // typed, exactly as they do in a file.
  StagedModel a = build_staged_resnet(tiny_config());
  std::stringstream buffer;
  save_params(a.param_values(), buffer);
  buffer.put('\xff');
  EXPECT_THROW(load_params(a.params(), buffer), CorruptionError);
}

TEST(Training, StagedModelLearnsSyntheticImages) {
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.channels = 2;
  data_cfg.height = 8;
  data_cfg.width = 8;
  data_cfg.noise_stddev = 0.15;
  Rng rng(42);
  const data::Dataset train = data::generate_images(data_cfg, 300, rng);
  const data::Dataset test = data::generate_images(data_cfg, 120, rng);

  StagedResNetConfig cfg = tiny_config();
  StagedModel model = build_staged_resnet(cfg);

  StagedTrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.sgd.learning_rate = 0.05;
  StagedTrainer trainer(model, tcfg);
  const double loss0 = trainer.train_epoch(train.samples, train.labels);
  trainer.fit(train.samples, train.labels);
  const double loss1 = trainer.train_epoch(train.samples, train.labels);
  EXPECT_LT(loss1, loss0);

  const double final_acc =
      StagedTrainer::evaluate_accuracy(model, test.samples, test.labels, 2);
  EXPECT_GT(final_acc, 0.5) << "4-class problem; chance is 0.25";
}

TEST(Training, PlainClassifierLearnsLinearlySeparableData) {
  // Two Gaussian blobs in 2-D.
  Rng rng(55);
  std::vector<Tensor> xs;
  std::vector<std::size_t> ys;
  for (int i = 0; i < 200; ++i) {
    const std::size_t label = i % 2;
    const double cx = label == 0 ? -1.0 : 1.0;
    Tensor x({2}, std::vector<float>{static_cast<float>(cx + rng.normal(0, 0.4)),
                                     static_cast<float>(cx + rng.normal(0, 0.4))});
    xs.push_back(std::move(x));
    ys.push_back(label);
  }
  Sequential net;
  net.add(std::make_unique<Dense>(2, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(8, 2, rng));
  ClassifierTrainConfig cfg;
  cfg.epochs = 15;
  train_classifier(net, xs, ys, cfg);
  EXPECT_GT(classifier_accuracy(net, xs, ys), 0.95);
}

}  // namespace
}  // namespace eugene::nn
