#include "core/eugene_service.hpp"

#include <algorithm>

#include "calib/ece.hpp"
#include "common/clock.hpp"
#include "common/logging.hpp"
#include "nn/train.hpp"

namespace eugene::core {

using tensor::Tensor;

namespace {

/// One kSwap trace marker: a publication event carrying the new epoch.
void record_swap(telemetry::TraceRecorder& trace, std::uint64_t epoch) {
  WallClock clock;
  const double now = clock.now_ms();
  telemetry::SpanHandle span = trace.begin_span(now);
  span.event(telemetry::TraceEventKind::kSwap, now, 0, 0,
             static_cast<double>(epoch));
}

}  // namespace

// Publication epochs and the lifecycle gauge land in the process-wide
// registry alongside the serving.* counters; the lifecycle machine sets its
// gauge on every transition.
EugeneService::EugeneService()
    : lifecycle_(&telemetry::MetricsRegistry::global().gauge(
          "serving.lifecycle.state")) {
  registry_.set_metrics(&telemetry::MetricsRegistry::global());
}

std::size_t EugeneService::train(const std::string& name, const data::Dataset& train_set,
                                 const nn::StagedResNetConfig& architecture,
                                 const nn::StagedTrainConfig& training) {
  EUGENE_REQUIRE(!train_set.empty(), "EugeneService::train: empty training set");
  nn::StagedModel model = nn::build_staged_resnet(architecture);
  nn::StagedTrainer trainer(model, training);
  trainer.fit(train_set.samples, train_set.labels);
  EUGENE_LOG(Info) << "trained model '" << name << "' (" << model.num_stages()
                   << " stages)";
  return registry_.add(name, std::move(model));
}

data::Dataset EugeneService::label(const data::Dataset& labeled_seed,
                                   const data::Dataset& unlabeled,
                                   const labeling::SelfTrainingLabeler::ModelFactory& factory,
                                   const labeling::SelfTrainingConfig& config,
                                   labeling::LabelingReport* report) {
  labeling::SelfTrainingLabeler labeler(factory, config);
  return labeler.run(labeled_seed, unlabeled, report);
}

reduce::CacheModel EugeneService::build_device_cache(
    const data::Dataset& train_set, const std::vector<std::size_t>& frequent_classes,
    const reduce::CacheBuildConfig& config) {
  Rng rng(config.architecture.seed + 17);
  return reduce::build_cache_model(train_set, frequent_classes, config, rng);
}

std::vector<double> EugeneService::profile(std::size_t handle,
                                           const tensor::Shape& input_shape,
                                           const profile::TimingConfig& timing) {
  EUGENE_REQUIRE(timing.repeats >= 1, "EugeneService::profile: need at least one repeat");
  Rng rng(timing.seed);
  const Tensor input = Tensor::randn(input_shape, rng);

  // Copy-on-write: the timing runs (and the cost install) happen on a
  // private clone of the entry; concurrent inference keeps serving the
  // pinned epoch untouched until the new costs publish atomically.
  std::vector<double> stage_ms;
  registry_.update(handle, [&](serving::ModelEntry& entry) {
    nn::StagedModel& model = entry.model;
    stage_ms.assign(model.num_stages(), 0.0);
    std::vector<std::vector<double>> samples(model.num_stages());
    for (std::size_t rep = 0; rep < timing.warmup + timing.repeats; ++rep) {
      const Tensor* current = &input;
      nn::StageOutput out;
      for (std::size_t s = 0; s < model.num_stages(); ++s) {
        Stopwatch watch;
        out = model.run_stage(s, *current);
        const double ms = watch.elapsed_ms();
        if (rep >= timing.warmup) samples[s].push_back(ms);
        current = &out.features;
      }
    }
    for (std::size_t s = 0; s < model.num_stages(); ++s) {
      std::sort(samples[s].begin(), samples[s].end());
      stage_ms[s] = samples[s][samples[s].size() / 2];
    }
    entry.stage_ms = stage_ms;
  });
  return stage_ms;
}

CalibrationReport EugeneService::calibrate(std::size_t handle,
                                           const data::Dataset& calib_set,
                                           const calib::EntropyCalibConfig& config) {
  // Copy-on-write, like profile(): heads are tuned and curves fitted on a
  // private clone, then the calibrated entry publishes as one new epoch.
  CalibrationReport report;
  registry_.update(handle, [&](serving::ModelEntry& entry) {
    report.stage_alpha = calib::calibrate_heads_entropy(entry.model, calib_set, config);

    const calib::StagedEvaluation eval = calib::evaluate_staged(entry.model, calib_set);
    report.stage_ece.resize(eval.num_stages());
    for (std::size_t s = 0; s < eval.num_stages(); ++s)
      report.stage_ece[s] = calib::expected_calibration_error(
          eval.predicted(s), eval.truth(s), eval.confidence(s), config.ece_bins);

    entry.curves.fit(eval);
    entry.calibration_alpha = report.stage_alpha;
    entry.calibrated = true;
  });
  return report;
}

std::vector<serving::InferenceResponse> EugeneService::infer_batch(
    std::size_t handle, const std::vector<serving::InferenceRequest>& requests,
    const serving::ServerConfig& config) {
  serving::ServerConfig effective = config;
  if (effective.trace == nullptr) effective.trace = &trace_;
  if (effective.lifecycle == nullptr) effective.lifecycle = &lifecycle_;
  // Pin one epoch for the whole batch: a concurrent swap/reload publishes a
  // new epoch without disturbing this request's model or artifacts.
  const serving::ModelRegistry::ViewPtr view = registry_.pin();
  serving::InferenceServer server(view->entry(handle), effective);
  return server.process_batch(requests);
}

serving::InferenceResponse EugeneService::infer(std::size_t handle, const Tensor& input,
                                                double early_exit_confidence) {
  serving::ServerConfig config;
  config.early_exit_confidence = early_exit_confidence;
  serving::InferenceRequest request;
  request.input = input;
  return infer_batch(handle, {request}, config).front();
}

std::string EugeneService::metrics_text() const {
  return telemetry::MetricsRegistry::global().snapshot_text();
}

std::uint64_t EugeneService::snapshot(const std::string& dir) {
  return serving::save_snapshot(registry_, dir);
}

std::size_t EugeneService::restore(const std::string& dir,
                                   const serving::ModelFactory& factory) {
  const auto result = serving::restore_snapshot(registry_, dir, factory);
  return result.has_value() ? result->models_restored : 0;
}

std::size_t EugeneService::reload(const std::string& dir,
                                  const serving::ModelFactory& factory) {
  const auto result = serving::reload_snapshot(registry_, dir, factory);
  if (!result.has_value()) return 0;
  record_swap(trace_, registry_.epoch());
  return result->models_restored;
}

void EugeneService::swap_model(std::size_t handle, nn::StagedModel model,
                               bool keep_artifacts) {
  const serving::ModelRegistry::ViewPtr view = registry_.pin();
  const serving::ModelEntry& old_entry = view->entry(handle);
  if (keep_artifacts)
    EUGENE_REQUIRE(model.num_stages() == old_entry.model.num_stages(),
                   "swap_model: stage count changed — pass keep_artifacts=false "
                   "and re-profile/re-calibrate the new architecture");
  std::shared_ptr<serving::ModelEntry> next =
      keep_artifacts
          ? old_entry.with_model(std::move(model))
          : std::make_shared<serving::ModelEntry>(old_entry.name, std::move(model));
  registry_.replace(handle, std::move(next));
  record_swap(trace_, registry_.epoch());
}

DrainOutcome EugeneService::begin_drain(const DrainOptions& options) {
  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  WallClock clock;
  telemetry::SpanHandle span = trace_.begin_span(clock.now_ms());
  span.event(telemetry::TraceEventKind::kDrain, clock.now_ms());

  DrainOutcome outcome;
  outcome.report = lifecycle_.begin_drain(options.timeout_ms);
  metrics.histogram("serving.drain.duration_ms").record(outcome.report.duration_ms);
  if (!outcome.report.completed)
    EUGENE_LOG(Warn) << "drain timed out with " << outcome.report.inflight_abandoned
                     << " task(s) still in flight after " << options.timeout_ms
                     << " ms";

  // Admissions are now rejected (or stragglers abandoned): flush the billing
  // ledger first so a restart replays a complete journal, then write the
  // final snapshot.
  if (options.usage != nullptr) {
    options.usage->close_journal();
    outcome.journal_flushed = true;
  }
  if (!options.snapshot_dir.empty())
    outcome.snapshot_epoch = serving::save_snapshot(registry_, options.snapshot_dir);

  lifecycle_.set_stopped();
  span.event(telemetry::TraceEventKind::kExit, clock.now_ms());
  EUGENE_LOG(Info) << "drain " << (outcome.report.completed ? "completed" : "timed out")
                   << " in " << outcome.report.duration_ms << " ms; server stopped";
  return outcome;
}

}  // namespace eugene::core
