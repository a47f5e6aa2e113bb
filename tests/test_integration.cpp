// End-to-end integration: the full Eugene pipeline at miniature scale —
// generate data → train a staged model → entropy-calibrate → fit confidence
// curves → build a workload → run every scheduling policy through the DES —
// asserting the cross-module contracts and the headline orderings that the
// benches reproduce at full scale.
#include <gtest/gtest.h>

#include <sstream>

#include "calib/calibrators.hpp"
#include "calib/ece.hpp"
#include "core/eugene_service.hpp"
#include "nn/serialize.hpp"
#include "data/synthetic_images.hpp"
#include "sched/partition.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"
#include "serving/usage.hpp"

namespace eugene {
namespace {

/// Shared miniature pipeline, built once for the whole suite.
class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticImageConfig dc;
    dc.num_classes = 6;
    dc.channels = 2;
    dc.height = 12;
    dc.width = 12;
    dc.difficulty_skew = 1.1;
    Rng rng(71);
    train_ = new data::Dataset(data::generate_images(dc, 500, rng));
    calib_ = new data::Dataset(data::generate_images(dc, 300, rng));
    test_ = new data::Dataset(data::generate_images(dc, 300, rng));

    service_ = new core::EugeneService();
    nn::StagedResNetConfig arch;
    arch.in_channels = 2;
    arch.height = 12;
    arch.width = 12;
    arch.num_classes = 6;
    arch.stage_channels = {6, 10, 14};
    arch.head_hidden = 16;
    nn::StagedTrainConfig tcfg;
    tcfg.epochs = 8;
    handle_ = service_->train("integration", *train_, arch, tcfg);

    calib::EntropyCalibConfig ccfg;
    ccfg.epochs = 80;  // miniature budget keeps the suite fast
    service_->calibrate(handle_, *calib_, ccfg);

    test_eval_ = new calib::StagedEvaluation(
        calib::evaluate_staged(service_->registry().pin()->entry(handle_).model, *test_));
  }

  static void TearDownTestSuite() {
    delete test_eval_;
    delete service_;
    delete train_;
    delete calib_;
    delete test_;
    test_eval_ = nullptr;
    service_ = nullptr;
    train_ = calib_ = test_ = nullptr;
  }

  static core::EugeneService* service_;
  static data::Dataset* train_;
  static data::Dataset* calib_;
  static data::Dataset* test_;
  static std::size_t handle_;
  static calib::StagedEvaluation* test_eval_;
};

core::EugeneService* Pipeline::service_ = nullptr;
data::Dataset* Pipeline::train_ = nullptr;
data::Dataset* Pipeline::calib_ = nullptr;
data::Dataset* Pipeline::test_ = nullptr;
std::size_t Pipeline::handle_ = 0;
calib::StagedEvaluation* Pipeline::test_eval_ = nullptr;

TEST_F(Pipeline, ModelLearnsAndAccuracyGrowsWithDepth) {
  const double acc1 = calib::stage_accuracy(*test_eval_, 0);
  const double acc3 = calib::stage_accuracy(*test_eval_, 2);
  EXPECT_GT(acc3, 1.0 / 6.0 + 0.25) << "final stage must beat chance comfortably";
  EXPECT_GE(acc3 + 0.05, acc1) << "depth should not hurt";
}

TEST_F(Pipeline, CalibratedConfidenceTracksAccuracy) {
  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const serving::ModelEntry& entry = view->entry(handle_);
  ASSERT_TRUE(entry.calibrated);
  for (std::size_t s = 0; s < 3; ++s) {
    const double acc = calib::stage_accuracy(*test_eval_, s);
    const double conf = calib::overall_confidence(test_eval_->confidence(s));
    EXPECT_NEAR(conf, acc, 0.15) << "stage " << s;
  }
}

TEST_F(Pipeline, ConfidenceCurvesDriveTheFullSchedulerStack) {
  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const serving::ModelEntry& entry = view->entry(handle_);
  ASSERT_TRUE(entry.curves.fitted());

  // Workload replaying real model outputs.
  sched::WorkloadConfig wl;
  wl.num_services = 6;
  wl.tasks_per_service = 20;
  wl.mean_interarrival_ms = 40.0;
  wl.deadline_ms = 60.0;
  Rng wl_rng(5);
  const auto tasks = sched::build_workload(*test_eval_, wl, wl_rng);

  sched::GpUtilityEstimator estimator(entry.curves);
  sched::GreedyUtilityPolicy greedy(estimator, 1);
  greedy.set_stage_cost_hint(10.0);
  sched::RoundRobinPolicy rr;
  sched::FifoPolicy fifo;

  const std::vector<double> stage_ms{10.0, 10.0, 10.0};
  sched::SimulationConfig sim;
  sim.num_workers = 2;  // overloaded: 6 streams on 2 workers

  const auto r_greedy = simulate(tasks, greedy, stage_ms, sim);
  const auto r_rr = simulate(tasks, rr, stage_ms, sim);
  const auto r_fifo = simulate(tasks, fifo, stage_ms, sim);

  // The headline Fig. 4 ordering at miniature scale.
  EXPECT_GT(r_greedy.mean_accuracy(), r_rr.mean_accuracy() - 0.02);
  EXPECT_GT(r_greedy.mean_accuracy(), r_fifo.mean_accuracy());
  // And the utility scheduler wastes less aborted work than FIFO.
  EXPECT_LE(r_greedy.aborted_stage_executions, r_fifo.aborted_stage_executions);
}

TEST_F(Pipeline, ServingEarlyExitConsistentWithEvaluationTable) {
  // Count test samples confidently classified at stage 1 in the evaluation
  // table; the serving path should early-exit a similar fraction.
  const double threshold = 0.9;
  std::size_t confident_stage1 = 0;
  for (const auto& r : test_eval_->records[0])
    confident_stage1 += r.confidence >= threshold ? 1 : 0;

  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < 100; ++i) requests.push_back({test_->samples[i], 0});
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = threshold;
  const auto responses = service_->infer_batch(handle_, requests, cfg);
  std::size_t exits_at_1 = 0;
  for (const auto& r : responses) exits_at_1 += r.stages_run == 1 ? 1 : 0;

  const double table_frac =
      static_cast<double>(confident_stage1) / static_cast<double>(test_->size());
  const double served_frac = static_cast<double>(exits_at_1) / 100.0;
  EXPECT_NEAR(served_frac, table_frac, 0.15);
}

TEST_F(Pipeline, PartitionPlannerConsumesRealArtifacts) {
  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const serving::ModelEntry& entry = view->entry(handle_);
  const auto infos = sched::stage_infos(entry.model, test_->samples[0]);
  const auto survival = sched::survival_curve(*test_eval_, 0.9);
  sched::PartitionConfig cfg;
  cfg.device.flops_per_ms = 5e4;
  cfg.server.flops_per_ms = 5e6;
  cfg.link.bytes_per_ms = 500.0;
  cfg.link.rtt_ms = 10.0;
  cfg.input_bytes = 2 * 12 * 12 * 4;
  const auto plan = sched::plan_partition(infos, survival, cfg);
  EXPECT_LE(plan.split, 3u);
  EXPECT_TRUE(plan.fits_device);
  EXPECT_GT(plan.expected_latency_ms, 0.0);
  EXPECT_TRUE(std::isfinite(plan.expected_latency_ms));
}

TEST_F(Pipeline, UsageMeterConsistentWithResponses) {
  serving::UsageMeter meter(service_->profile(handle_, {2, 12, 12}), {"default"});

  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < 30; ++i) requests.push_back({test_->samples[i], 0});
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 0.9;
  const auto responses = service_->infer_batch(handle_, requests, cfg);
  meter.record(requests, responses, 3);

  std::size_t stages = 0;
  for (const auto& r : responses) stages += r.stages_run;
  EXPECT_EQ(meter.usage()[0].requests, 30u);
  EXPECT_EQ(meter.usage()[0].stages_executed, stages);
  EXPECT_GT(meter.total_charge({0.01, 0.05}), 30 * 0.05);
}

TEST_F(Pipeline, SerializationRoundTripSurvivesServing) {
  // Export the trained+calibrated model, import into a fresh architecture,
  // and check the serving outputs agree.
  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const serving::ModelEntry& entry = view->entry(handle_);
  std::stringstream blob;
  nn::save_params(entry.model.param_values(), blob);

  nn::StagedResNetConfig arch;
  arch.in_channels = 2;
  arch.height = 12;
  arch.width = 12;
  arch.num_classes = 6;
  arch.stage_channels = {6, 10, 14};
  arch.head_hidden = 16;
  arch.seed = 999;  // different init: weights must come from the blob
  nn::StagedModel replica = nn::build_staged_resnet(arch);
  nn::load_params(replica.params(), blob);

  for (std::size_t i = 0; i < 10; ++i) {
    const auto a = entry.model.forward_all(test_->samples[i]);
    const auto b = replica.forward_all(test_->samples[i]);
    EXPECT_EQ(a.back().predicted_label, b.back().predicted_label);
    EXPECT_NEAR(a.back().confidence, b.back().confidence, 1e-6);
  }
}

}  // namespace
}  // namespace eugene
