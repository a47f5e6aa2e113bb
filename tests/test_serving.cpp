// Serving-layer and EugeneService facade tests: registry semantics, the
// inference server's scheduling/early-exit/deadline behaviour, service
// classes, and the end-to-end train → calibrate → profile → infer flow.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/trace.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"

namespace eugene {
namespace {

data::SyntheticImageConfig data_config() {
  data::SyntheticImageConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  return cfg;
}

nn::StagedResNetConfig model_config() {
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6, 8};
  cfg.head_hidden = 16;
  return cfg;
}

// A published entry is const by type: a view hands out only const
// references, and the registry has no accessor that returns one unpinned.
static_assert(std::is_same_v<decltype(std::declval<const serving::ModelRegistry::View&>()
                                          .entry(0)),
                             const serving::ModelEntry&>);
template <typename Registry>
concept HasUnpinnedEntry = requires(Registry& r) { r.entry(std::size_t{0}); };
static_assert(!HasUnpinnedEntry<serving::ModelRegistry>);

TEST(ModelRegistry, AddFindAndDuplicateRejection) {
  serving::ModelRegistry registry;
  const std::size_t h1 = registry.add("alpha", nn::build_staged_resnet(model_config()));
  const std::size_t h2 = registry.add("beta", nn::build_staged_resnet(model_config()));
  EXPECT_EQ(h1, 0u);
  EXPECT_EQ(h2, 1u);
  EXPECT_EQ(registry.find("beta").value(), 1u);
  EXPECT_FALSE(registry.find("gamma").has_value());
  EXPECT_THROW(registry.add("alpha", nn::build_staged_resnet(model_config())),
               InvalidArgument);
  EXPECT_THROW((void)registry.pin()->entry(5), InvalidArgument);
}

TEST(InferenceServer, RefusesUncalibratedModels) {
  serving::ModelRegistry registry;
  registry.add("raw", nn::build_staged_resnet(model_config()));
  EXPECT_THROW(serving::InferenceServer(registry.pin()->entry(0),
                                        serving::ServerConfig{}),
               InvalidArgument);
}

// The live scheduler: the server's peer workers (ServerConfig::workers)
// picking stages from one engine, here two of them.

/// Trains a model_config() model on `train` and publishes it with curves
/// fitted on the same set.
std::size_t add_trained_model(serving::ModelRegistry& registry, const data::Dataset& train,
                              std::size_t epochs) {
  nn::StagedModel model = nn::build_staged_resnet(model_config());
  {
    nn::StagedTrainConfig tcfg;
    tcfg.epochs = epochs;
    nn::StagedTrainer trainer(model, tcfg);
    trainer.fit(train.samples, train.labels);
  }
  auto entry = std::make_shared<serving::ModelEntry>("live", std::move(model));
  entry->curves.fit(calib::evaluate_staged(entry->model, train));
  return registry.add_entry(std::move(entry));
}

TEST(LiveScheduler, MatchesDirectInferenceWithoutDeadlines) {
  Rng rng(8);
  const data::Dataset train = data::generate_images(data_config(), 200, rng);
  const data::Dataset batch = data::generate_images(data_config(), 12, rng);
  serving::ModelRegistry registry;
  const std::size_t handle = add_trained_model(registry, train, 3);
  const serving::ModelRegistry::ViewPtr view = registry.pin();
  const serving::ModelEntry& entry = view->entry(handle);

  serving::ServerConfig cfg;        // the default class has no deadline
  cfg.early_exit_confidence = 2.0;  // no early exit
  cfg.workers = 2;
  serving::InferenceServer server(entry, cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const tensor::Tensor& x : batch.samples) requests.push_back({x, 0});
  const auto results = server.process_batch(requests);

  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].stages_run, 3u);
    EXPECT_FALSE(results[i].expired);
    const auto direct = entry.model.forward_all(batch.samples[i]);
    EXPECT_EQ(results[i].label, direct.back().predicted_label);
    // Bitwise: both workers run the same run_stage on the same model.
    EXPECT_EQ(results[i].confidence, direct.back().confidence);
  }
}

TEST(LiveScheduler, EarlyExitReducesExecutedStages) {
  data::SyntheticImageConfig data_cfg = data_config();
  data_cfg.noise_stddev = 0.05;  // easy data → high early confidence
  Rng rng(9);
  const data::Dataset train = data::generate_images(data_cfg, 250, rng);
  const data::Dataset batch = data::generate_images(data_cfg, 10, rng);
  serving::ModelRegistry registry;
  const std::size_t handle = add_trained_model(registry, train, 6);
  const serving::ModelRegistry::ViewPtr view = registry.pin();
  const serving::ModelEntry& entry = view->entry(handle);

  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 0.4;  // 4 classes: chance level is 0.25
  cfg.workers = 2;
  serving::InferenceServer server(entry, cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const tensor::Tensor& x : batch.samples) requests.push_back({x, 0});
  const auto results = server.process_batch(requests);

  ASSERT_EQ(results.size(), batch.size());
  std::size_t total_stages = 0;
  for (const auto& r : results) total_stages += r.stages_run;
  EXPECT_LT(total_stages, 3 * results.size())
      << "at least one easy sample should exit early";
}

// Shared fixture: one fully prepared EugeneService.
class ServiceIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(30);
    train_ = new data::Dataset(data::generate_images(data_config(), 350, rng));
    calib_ = new data::Dataset(data::generate_images(data_config(), 200, rng));
    test_ = new data::Dataset(data::generate_images(data_config(), 60, rng));

    service_ = new core::EugeneService();
    nn::StagedTrainConfig tcfg;
    tcfg.epochs = 8;
    handle_ = service_->train("resnet-tiny", *train_, model_config(), tcfg);

    // Default calibration config: wide alpha grid, full fine-tune budget.
    report_ = service_->calibrate(handle_, *calib_);
  }

  static void TearDownTestSuite() {
    delete service_;
    delete train_;
    delete calib_;
    delete test_;
    service_ = nullptr;
    train_ = calib_ = test_ = nullptr;
  }

  static core::EugeneService* service_;
  static data::Dataset* train_;
  static data::Dataset* calib_;
  static data::Dataset* test_;
  static std::size_t handle_;
  static core::CalibrationReport report_;
};

core::EugeneService* ServiceIntegration::service_ = nullptr;
data::Dataset* ServiceIntegration::train_ = nullptr;
data::Dataset* ServiceIntegration::calib_ = nullptr;
data::Dataset* ServiceIntegration::test_ = nullptr;
std::size_t ServiceIntegration::handle_ = 0;
core::CalibrationReport ServiceIntegration::report_;

TEST_F(ServiceIntegration, CalibrationProducesLowEce) {
  ASSERT_EQ(report_.stage_ece.size(), 3u);
  for (double ece : report_.stage_ece) EXPECT_LT(ece, 0.2);
  EXPECT_TRUE(service_->registry().pin()->entry(handle_).calibrated);
}

TEST_F(ServiceIntegration, ProfileMeasuresIncreasingStageCosts) {
  const std::vector<double> stage_ms = service_->profile(handle_, {2, 8, 8});
  ASSERT_EQ(stage_ms.size(), 3u);
  for (double ms : stage_ms) EXPECT_GT(ms, 0.0);
  // The profile is installed as the entry's stage times.
  EXPECT_EQ(service_->registry().pin()->entry(handle_).stage_ms, stage_ms);
}

TEST_F(ServiceIntegration, ProfileRejectsZeroRepeatsAndPublishesNothing) {
  // No timed run means no median to take: the call must fail before the
  // registry update, leaving the epoch and the installed costs untouched.
  const std::uint64_t epoch = service_->registry().epoch();
  const std::vector<double> costs = service_->registry().pin()->entry(handle_).stage_ms;
  profile::TimingConfig timing;
  timing.repeats = 0;
  EXPECT_THROW(service_->profile(handle_, {2, 8, 8}, timing), InvalidArgument);
  EXPECT_EQ(service_->registry().epoch(), epoch);
  EXPECT_EQ(service_->registry().pin()->entry(handle_).stage_ms, costs);
}

TEST_F(ServiceIntegration, SingleInferenceReturnsSaneResult) {
  const auto response = service_->infer(handle_, test_->samples[0]);
  EXPECT_LT(response.label, 4u);
  EXPECT_GT(response.confidence, 0.0);
  EXPECT_GE(response.stages_run, 1u);
  EXPECT_LE(response.stages_run, 3u);
  EXPECT_FALSE(response.expired);
}

TEST_F(ServiceIntegration, BatchInferenceIsReasonablyAccurate) {
  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < test_->size(); ++i)
    requests.push_back({test_->samples[i], 0});
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 0.9;
  const auto responses = service_->infer_batch(handle_, requests, cfg);
  ASSERT_EQ(responses.size(), test_->size());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < responses.size(); ++i)
    if (responses[i].label == test_->labels[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(responses.size()), 0.5);
}

TEST_F(ServiceIntegration, EarlyExitSavesStages) {
  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < 30; ++i) requests.push_back({test_->samples[i % test_->size()], 0});

  serving::ServerConfig eager;
  eager.early_exit_confidence = 0.5;
  serving::ServerConfig full;
  full.early_exit_confidence = 2.0;  // disabled

  std::size_t eager_stages = 0, full_stages = 0;
  for (const auto& r : service_->infer_batch(handle_, requests, eager))
    eager_stages += r.stages_run;
  for (const auto& r : service_->infer_batch(handle_, requests, full))
    full_stages += r.stages_run;
  EXPECT_EQ(full_stages, 3u * requests.size());
  EXPECT_LT(eager_stages, full_stages);
}

TEST_F(ServiceIntegration, BatchAnswersMatchPerSampleChain) {
  // A 64-request, two-class batch must answer exactly what a lone
  // per-sample run_stage chain answers at the same depth: bitwise
  // confidences and identical labels, exiting at the first stage that
  // clears the early-exit bar. The same holds on a pool of peer workers:
  // which worker runs a stage changes nothing it computes. A 1024-request
  // batch ends with at least 128 KiB of features (128 B a request at the
  // last stage), so after it process_batch also hands the freed heap back.
  constexpr double kExit = 0.7;
  serving::ServerConfig cfg;
  cfg.classes = {{"interactive", std::numeric_limits<double>::infinity(), 4.0},
                 {"camera", std::numeric_limits<double>::infinity(), 1.0}};
  cfg.early_exit_confidence = kExit;

  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const nn::StagedModel& model = view->entry(handle_).model;
  for (const auto& [batch, workers] :
       {std::pair<std::size_t, std::size_t>{64, 1}, {64, 4}, {1024, 1}, {1024, 4}}) {
    SCOPED_TRACE(testing::Message() << batch << " requests, " << workers << " workers");
    std::vector<serving::InferenceRequest> requests;
    for (std::size_t i = 0; i < batch; ++i)
      requests.push_back({test_->samples[i % test_->size()], i % 2});
    cfg.workers = workers;
    const auto responses = service_->infer_batch(handle_, requests, cfg);
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const serving::InferenceResponse& r = responses[i];
      ASSERT_GE(r.stages_run, 1u) << i;
      ASSERT_LE(r.stages_run, model.num_stages()) << i;
      EXPECT_FALSE(r.expired) << i;
      EXPECT_FALSE(r.degraded) << i;
      tensor::Tensor x = requests[i].input;
      for (std::size_t s = 0; s < r.stages_run; ++s) {
        const nn::StageOutput out = model.run_stage(s, x);
        const double confidence = out.confidence;
        if (s + 1 < r.stages_run) {
          EXPECT_LT(confidence, kExit) << "request " << i << " ran past an exit at stage " << s;
        } else {
          EXPECT_EQ(r.label, out.predicted_label) << i;
          EXPECT_EQ(r.confidence, confidence) << i;
          if (r.stages_run < model.num_stages()) {
            EXPECT_GE(confidence, kExit) << i;
          }
        }
        x = out.features;
      }
    }
  }
}

TEST_F(ServiceIntegration, PickSequenceMatchesRebuiltRunnableSet) {
  // The server keeps its runnable set incrementally. Its decisions must be
  // the ones a per-pick rebuild of the set (every live request, in request
  // order) gives: the server's stage order, read back from its trace, is
  // replayed pick by pick through a fresh policy over rebuilt sets.
  constexpr double kExit = 0.7;
  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < 64; ++i)
    requests.push_back({test_->samples[i % test_->size()], i % 2});
  telemetry::TraceRecorder trace(8192);
  serving::ServerConfig cfg;
  cfg.classes = {{"interactive", std::numeric_limits<double>::infinity(), 4.0},
                 {"camera", std::numeric_limits<double>::infinity(), 1.0}};
  cfg.early_exit_confidence = kExit;
  cfg.trace = &trace;
  const auto responses = service_->infer_batch(handle_, requests, cfg);

  std::map<std::uint64_t, std::size_t> request_of_span;
  std::size_t stages_run = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    request_of_span[responses[i].span_id] = i;
    stages_run += responses[i].stages_run;
  }
  const serving::ModelRegistry::ViewPtr view = service_->registry().pin();
  const serving::ModelEntry& entry = view->entry(handle_);
  const std::size_t num_stages = entry.model.num_stages();
  sched::GpUtilityEstimator estimator(entry.curves);
  sched::GreedyUtilityPolicy policy(estimator, 1);
  policy.set_service_weights({4.0, 1.0});
  std::vector<std::vector<double>> observed(requests.size());
  std::vector<bool> done(requests.size(), false);
  std::vector<std::size_t> server_order;
  std::size_t picks = 0;
  for (const telemetry::TraceEvent& ev : trace.events()) {
    if (ev.kind != telemetry::TraceEventKind::kStageDone) continue;
    std::vector<sched::TaskView> runnable;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (done[i]) continue;
      sched::TaskView v;
      v.task_id = i;
      v.service = requests[i].service_class;
      v.stages_done = observed[i].size();
      v.total_stages = num_stages;
      v.deadline_ms = std::numeric_limits<double>::infinity();
      v.observed_confidence = observed[i];
      runnable.push_back(v);
    }
    const std::size_t served = request_of_span.at(ev.span);
    ASSERT_EQ(policy.pick(runnable, 0.0), served) << "pick " << picks;
    ASSERT_EQ(ev.stage, observed[served].size()) << "pick " << picks;
    observed[served].push_back(ev.value);
    done[served] = observed[served].size() == num_stages || ev.value >= kExit;
    server_order.push_back(served);
    ++picks;
  }
  EXPECT_EQ(picks, stages_run);
  EXPECT_EQ(trace.dropped(), 0u);

  // Second replay: Fig. 4's simulator runs the server's engine, so on the
  // same inputs it must make the same picks. Each request becomes a task
  // played back from its per-sample run_stage chain, with the confidence
  // exactly as the server saw it; one worker, arrival 0, no deadline, and
  // the same early-exit bar. The simulator dispatches at each Arrival
  // event, so its first pick sees task 0 alone. Task 0 is also the
  // server's first pick: every task starts with the same predicted gain,
  // the weight-4 class wins, and ties within it go to task order.
  class RecordingPolicy final : public sched::SchedulingPolicy {
   public:
    explicit RecordingPolicy(sched::SchedulingPolicy& inner) : inner_(inner) {}
    std::optional<std::size_t> pick(const std::vector<sched::TaskView>& runnable,
                                    double now_ms) override {
      const std::optional<std::size_t> id = inner_.pick(runnable, now_ms);
      if (id.has_value()) picks.push_back(*id);
      return id;
    }
    void reset() override {
      inner_.reset();
      picks.clear();
    }
    std::vector<std::size_t> picks;

   private:
    sched::SchedulingPolicy& inner_;
  };
  std::vector<sched::TaskSpec> tasks(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tasks[i].service = requests[i].service_class;
    tensor::Tensor x = requests[i].input;
    for (std::size_t s = 0; s < num_stages; ++s) {
      const nn::StageOutput out = entry.model.run_stage(s, x);
      sched::StageOutcome outcome;
      outcome.predicted = out.predicted_label;
      outcome.correct = out.predicted_label == test_->labels[i % test_->size()];
      outcome.confidence = out.confidence;
      tasks[i].stages.push_back(outcome);
      x = out.features;
    }
  }
  sched::GreedyUtilityPolicy greedy(estimator, 1);
  greedy.set_service_weights({4.0, 1.0});
  RecordingPolicy recorder(greedy);
  sched::SimulationConfig sim;
  sim.num_workers = 1;
  sim.early_exit_confidence = kExit;
  sched::simulate(tasks, recorder, std::vector<double>(num_stages, 1.0), sim);
  EXPECT_EQ(recorder.picks, server_order);
}

TEST_F(ServiceIntegration, ServiceClassDeadlineExpiresRequests) {
  std::vector<serving::InferenceRequest> requests;
  for (std::size_t i = 0; i < 10; ++i) requests.push_back({test_->samples[i], 0});
  serving::ServerConfig cfg;
  cfg.classes = {{"impossible", 0.0, 1.0}};  // deadline already passed
  cfg.early_exit_confidence = 2.0;
  const auto responses = service_->infer_batch(handle_, requests, cfg);
  for (const auto& r : responses) {
    EXPECT_TRUE(r.expired);
    EXPECT_EQ(r.stages_run, 0u);
  }
}

TEST_F(ServiceIntegration, ServiceClassesValidated) {
  std::vector<serving::InferenceRequest> requests = {{test_->samples[0], 3}};
  serving::ServerConfig cfg;  // only class 0 exists
  EXPECT_THROW(service_->infer_batch(handle_, requests, cfg), InvalidArgument);
}

TEST_F(ServiceIntegration, LabelingFacadeDelegates) {
  Rng rng(31);
  const data::Dataset labeled = data::generate_images(data_config(), 50, rng);
  const data::Dataset unlabeled = data::generate_images(data_config(), 100, rng);
  labeling::SelfTrainingConfig cfg;
  cfg.rounds = 2;
  cfg.training.epochs = 5;
  labeling::LabelingReport report;
  const data::Dataset augmented = service_->label(
      labeled, unlabeled,
      [](std::uint64_t variant) {
        Rng r(variant);
        nn::Sequential net;
        net.add(std::make_unique<nn::Flatten>())
            .add(std::make_unique<nn::Dense>(2 * 8 * 8, 16, r))
            .add(std::make_unique<nn::ReLU>())
            .add(std::make_unique<nn::Dense>(16, 4, r));
        return net;
      },
      cfg, &report);
  EXPECT_GE(augmented.size(), labeled.size());
  EXPECT_EQ(augmented.size(), labeled.size() + report.adopted_total);
}

TEST_F(ServiceIntegration, DeviceCacheFacadeBuildsWorkingCache) {
  reduce::CacheBuildConfig cfg;
  cfg.architecture.in_channels = 2;
  cfg.architecture.height = 8;
  cfg.architecture.width = 8;
  cfg.architecture.conv_channels = {6, 6};
  cfg.training.epochs = 5;
  const reduce::CacheModel cache = service_->build_device_cache(*train_, {0, 2}, cfg);
  EXPECT_EQ(cache.frequent_classes, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(cache.other_label, 2u);
}

}  // namespace
}  // namespace eugene
