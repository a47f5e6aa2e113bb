// Calibration tests: ECE/reliability math on constructed cases, and the
// entropy / MC-dropout / temperature calibrators on a real trained model.
#include <gtest/gtest.h>

#include <cstring>

#include "calib/calibrators.hpp"
#include "calib/ece.hpp"
#include "calib/evaluation.hpp"
#include "data/synthetic_images.hpp"
#include "nn/train.hpp"

namespace eugene::calib {
namespace {

TEST(Ece, PerfectCalibrationIsZero) {
  // Two bins: 70% confidence with 70% accuracy, 90% with 90%.
  std::vector<std::size_t> pred, truth;
  std::vector<float> conf;
  for (int i = 0; i < 100; ++i) {
    pred.push_back(1);
    truth.push_back(i < 70 ? 1 : 0);
    conf.push_back(0.7f);
  }
  for (int i = 0; i < 100; ++i) {
    pred.push_back(1);
    truth.push_back(i < 90 ? 1 : 0);
    conf.push_back(0.9f);
  }
  EXPECT_NEAR(expected_calibration_error(pred, truth, conf, 10), 0.0, 1e-6);
}

TEST(Ece, OverconfidenceMeasured) {
  // Everything predicted with 0.95 confidence but only half correct.
  std::vector<std::size_t> pred(100, 1), truth(100, 0);
  for (int i = 0; i < 50; ++i) truth[i] = 1;
  std::vector<float> conf(100, 0.95f);
  EXPECT_NEAR(expected_calibration_error(pred, truth, conf, 10), 0.45, 1e-6);
}

TEST(Ece, WeightsBinsBySize) {
  // 90 samples perfectly calibrated at 0.85; 10 samples off by 0.5 at 0.55.
  std::vector<std::size_t> pred, truth;
  std::vector<float> conf;
  for (int i = 0; i < 90; ++i) {
    pred.push_back(0);
    truth.push_back(i < 76 ? 0 : 1);  // 76/90 ≈ 0.844 accuracy
    conf.push_back(0.85f);
  }
  for (int i = 0; i < 10; ++i) {
    pred.push_back(0);
    truth.push_back(i == 0 ? 0 : 1);  // 0.1 accuracy, 0.55 confidence
    conf.push_back(0.55f);
  }
  const double ece = expected_calibration_error(pred, truth, conf, 10);
  // 0.9·|0.844−0.85| + 0.1·|0.1−0.55| ≈ 0.0505
  EXPECT_NEAR(ece, 0.9 * (0.85 - 76.0 / 90.0) + 0.1 * 0.45, 1e-6);
}

TEST(Reliability, BinBoundariesAreHalfOpen) {
  // 0.25 and 0.5 are exactly representable floats, so the half-open
  // boundary behaviour is well defined: (0, 0.25] and (0.25, 0.5].
  std::vector<std::size_t> pred = {0, 0, 0};
  std::vector<std::size_t> truth = {0, 0, 0};
  std::vector<float> conf = {0.25f, 0.3f, 0.5f};
  const auto bins = reliability_diagram(pred, truth, conf, 4);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 2u);
}

TEST(Reliability, ZeroConfidenceLandsInFirstBin) {
  std::vector<std::size_t> pred = {0};
  std::vector<std::size_t> truth = {1};
  std::vector<float> conf = {0.0f};
  const auto bins = reliability_diagram(pred, truth, conf, 5);
  EXPECT_EQ(bins[0].count, 1u);
}

TEST(Reliability, RejectsOutOfRangeConfidence) {
  std::vector<std::size_t> pred = {0};
  std::vector<std::size_t> truth = {0};
  std::vector<float> conf = {1.5f};
  EXPECT_THROW(reliability_diagram(pred, truth, conf), InvalidArgument);
}

TEST(OverallStats, AccuracyAndConfidence) {
  std::vector<std::size_t> pred = {1, 2, 3, 4};
  std::vector<std::size_t> truth = {1, 2, 0, 0};
  std::vector<float> conf = {0.5f, 0.7f, 0.9f, 0.9f};
  EXPECT_DOUBLE_EQ(overall_accuracy(pred, truth), 0.5);
  EXPECT_NEAR(overall_confidence(conf), 0.75, 1e-6);
}

TEST(OverallStats, AlphaSignRule) {
  // Confidence below accuracy → sharpen → positive α (see ece.cpp note).
  EXPECT_GT(suggest_alpha_sign(0.9, 0.6), 0.0);
  EXPECT_LT(suggest_alpha_sign(0.6, 0.9), 0.0);
}

// ---- integration fixture: one small trained model shared across tests ----

class CalibrationIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticImageConfig data_cfg;
    data_cfg.num_classes = 5;
    data_cfg.channels = 2;
    data_cfg.height = 8;
    data_cfg.width = 8;
    Rng rng(17);
    train_set_ = new data::Dataset(data::generate_images(data_cfg, 400, rng));
    calib_set_ = new data::Dataset(data::generate_images(data_cfg, 250, rng));
    test_set_ = new data::Dataset(data::generate_images(data_cfg, 250, rng));

    nn::StagedResNetConfig cfg;
    cfg.in_channels = 2;
    cfg.height = 8;
    cfg.width = 8;
    cfg.num_classes = 5;
    cfg.stage_channels = {4, 8, 12};
    cfg.head_dropout = 0.25f;
    model_ = new nn::StagedModel(nn::build_staged_resnet(cfg));
    nn::StagedTrainConfig tcfg;
    tcfg.epochs = 8;
    nn::StagedTrainer trainer(*model_, tcfg);
    trainer.fit(train_set_->samples, train_set_->labels);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete train_set_;
    delete calib_set_;
    delete test_set_;
    model_ = nullptr;
    train_set_ = calib_set_ = test_set_ = nullptr;
  }

  static double mean_ece(const StagedEvaluation& eval) {
    double total = 0.0;
    for (std::size_t s = 0; s < eval.num_stages(); ++s)
      total += expected_calibration_error(eval.predicted(s), eval.truth(s),
                                          eval.confidence(s), 10);
    return total / static_cast<double>(eval.num_stages());
  }

  static nn::StagedModel* model_;
  static data::Dataset* train_set_;
  static data::Dataset* calib_set_;
  static data::Dataset* test_set_;
};

nn::StagedModel* CalibrationIntegration::model_ = nullptr;
data::Dataset* CalibrationIntegration::train_set_ = nullptr;
data::Dataset* CalibrationIntegration::calib_set_ = nullptr;
data::Dataset* CalibrationIntegration::test_set_ = nullptr;

TEST_F(CalibrationIntegration, EvaluationTableIsConsistent) {
  const StagedEvaluation eval = evaluate_staged(*model_, *test_set_);
  EXPECT_EQ(eval.num_stages(), 3u);
  EXPECT_EQ(eval.num_samples(), test_set_->size());
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto& r : eval.records[s]) {
      EXPECT_GE(r.confidence, 0.0f);
      EXPECT_LE(r.confidence, 1.0f);
      EXPECT_EQ(r.probs.size(), 5u);
    }
  }
  // Later stages should classify no worse than much earlier ones overall.
  EXPECT_GE(stage_accuracy(eval, 2) + 0.05, stage_accuracy(eval, 0));
}

TEST_F(CalibrationIntegration, McDropoutEvaluationSoftensConfidence) {
  const StagedEvaluation det = evaluate_staged(*model_, *test_set_);
  const StagedEvaluation mc = evaluate_staged_mc(*model_, *test_set_, 15);
  const double det_conf = overall_confidence(det.confidence(2));
  const double mc_conf = overall_confidence(mc.confidence(2));
  EXPECT_LT(mc_conf, det_conf + 1e-6)
      << "averaging over dropout masks must not sharpen confidence";
}

TEST_F(CalibrationIntegration, StageFeaturesMatchDirectForward) {
  const auto features = stage_features(*model_, *test_set_);
  ASSERT_EQ(features.size(), 3u);
  ASSERT_EQ(features[0].size(), test_set_->size());
  // Head applied to cached features must equal the direct pipeline.
  const auto outputs = model_->forward_all(test_set_->samples[0]);
  const tensor::Tensor logits = nn::infer(model_->head(1), features[1][0]);
  const auto probs = nn::softmax_probs(logits);
  for (std::size_t c = 0; c < probs.size(); ++c)
    EXPECT_NEAR(probs[c], outputs[1].probs[c], 1e-5);
}

TEST_F(CalibrationIntegration, EntropyCalibrationReducesEce) {
  const double before = mean_ece(evaluate_staged(*model_, *calib_set_));
  EntropyCalibConfig cfg;
  cfg.alpha_grid = {-0.4, -0.2, 0.0, 0.2, 0.4};
  cfg.epochs = 15;
  const std::vector<double> alpha = calibrate_heads_entropy(*model_, *calib_set_, cfg);
  EXPECT_EQ(alpha.size(), 3u);
  const double after_calib = mean_ece(evaluate_staged(*model_, *calib_set_));
  EXPECT_LE(after_calib, before + 1e-9)
      << "grid search includes α=0, so calibration can never hurt on the "
         "calibration set";
  // Held-out ECE should also be small (the headline Table II property).
  const double after_test = mean_ece(evaluate_staged(*model_, *test_set_));
  EXPECT_LT(after_test, 0.25);
  (void)alpha;
}

TEST_F(CalibrationIntegration, EntropyCalibrationKeepsExactlyTheWinningHead) {
  // One α besides the untouched head: every head must end bitwise equal to
  // its pre-calibration weights (α = 0 won) or to those weights fine-tuned
  // with that α on the first 70% of the calibration set (α won). This pins
  // the weight backup and restore around each candidate. α = 1 is strong
  // enough that an early head can lose to its untouched weights, so both
  // outcomes get exercised.
  const std::size_t fit_count = calib_set_->size() * 7 / 10;
  const std::vector<std::size_t> fit_labels(calib_set_->labels.begin(),
                                            calib_set_->labels.begin() + fit_count);
  const nn::StagedModel before = model_->clone();
  const auto features = stage_features(before, *calib_set_);
  for (const double candidate : {0.35, 1.0}) {
    nn::StagedModel model = model_->clone();
    EntropyCalibConfig cfg;
    cfg.alpha_grid = {candidate};
    cfg.epochs = 15;
    const std::vector<double> alpha = calibrate_heads_entropy(model, *calib_set_, cfg);
    ASSERT_EQ(alpha.size(), 3u);

    for (std::size_t s = 0; s < 3; ++s) {
      nn::StagedModel expected = before.clone();
      if (alpha[s] == candidate) {
        finetune_head(expected, s, std::span(features[s]).first(fit_count), fit_labels,
                      candidate, cfg.epochs, cfg.learning_rate, cfg.batch_size);
      } else {
        ASSERT_EQ(alpha[s], 0.0) << "stage " << s;
      }
      const auto got = model.head(s).params();
      const auto want = expected.head(s).params();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].value->shape(), want[i].value->shape());
        EXPECT_EQ(std::memcmp(got[i].value->raw(), want[i].value->raw(),
                              got[i].value->numel() * sizeof(float)),
                  0)
            << "grid {" << candidate << "}, stage " << s << " (alpha " << alpha[s]
            << "), parameter " << i;
      }
    }
  }
}

TEST_F(CalibrationIntegration, TemperatureScalingProducesFiniteTemps) {
  const auto temps = fit_temperatures(*model_, *calib_set_);
  ASSERT_EQ(temps.size(), 3u);
  for (double t : temps) {
    EXPECT_GT(t, 0.05);
    EXPECT_LT(t, 10.0);
  }
  const StagedEvaluation eval = evaluate_with_temperature(*model_, *test_set_, temps);
  EXPECT_EQ(eval.num_samples(), test_set_->size());
  // Temperature scaling never changes the argmax.
  const StagedEvaluation plain = evaluate_staged(*model_, *test_set_);
  for (std::size_t i = 0; i < eval.num_samples(); ++i)
    EXPECT_EQ(eval.records[2][i].predicted, plain.records[2][i].predicted);
}

}  // namespace
}  // namespace eugene::calib
