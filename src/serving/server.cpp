#include "serving/server.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/thread_annotations.hpp"
#include "sched/engine.hpp"

namespace eugene::serving {

using tensor::Tensor;

InferenceServer::InferenceServer(const ModelEntry& entry, ServerConfig config)
    : entry_(entry), config_(std::move(config)) {
  EUGENE_REQUIRE(entry_.curves.fitted(),
                 "InferenceServer: model has no fitted confidence curves; "
                 "calibrate and fit curves before serving");
  EUGENE_REQUIRE(entry_.model.num_stages() > 0, "InferenceServer: model has no stages");
  EUGENE_REQUIRE(config_.workers >= 1, "InferenceServer: need at least one worker");
  EUGENE_REQUIRE(!config_.classes.empty(), "InferenceServer: no service classes");
  EUGENE_REQUIRE(config_.lookahead >= 1, "InferenceServer: lookahead must be >= 1");
}

std::vector<InferenceResponse> InferenceServer::process_batch(
    const std::vector<InferenceRequest>& requests) const {
  // Up-front validation: reject malformed batches with typed errors before
  // any stage runs.
  EUGENE_REQUIRE(!requests.empty(), "process_batch: empty batch");
  for (const auto& r : requests) {
    EUGENE_REQUIRE(r.service_class < config_.classes.size(),
                   "process_batch: unknown service class");
    EUGENE_REQUIRE(r.input.numel() > 0, "process_batch: empty input tensor");
  }

  WallClock clock;
  const std::size_t num_stages = entry_.model.num_stages();
  sched::GpUtilityEstimator estimator(entry_.curves);
  sched::GreedyUtilityPolicy policy(estimator, config_.lookahead);
  std::vector<double> weights;
  weights.reserve(config_.classes.size());
  for (const auto& c : config_.classes) weights.push_back(c.utility_weight);
  policy.set_service_weights(std::move(weights));

  // Every request arrives at the batch start; its deadline is its class's.
  sched::Engine engine(policy, requests.size(), num_stages, config_.max_stage_retries,
                       config_.early_exit_confidence, config_.trace);
  for (const InferenceRequest& r : requests)
    engine.add(r.service_class, 0.0, config_.classes[r.service_class].deadline_ms,
               num_stages);

  // Lifecycle gate (DESIGN.md §13): a draining server answers with typed
  // drain rejections, never degraded answers. No stage runs for a rejected
  // batch.
  if (!engine.admit(config_.lifecycle, clock.now_ms())) {
    if (config_.metrics != nullptr)
      config_.metrics->counter("serving.drain.rejections").inc(requests.size());
    return engine.take_results();
  }

  using telemetry::TraceEventKind;
  // Per-stage latency histograms resolved once; record() is lock-free so
  // the stage loop never touches the registry mutex.
  std::vector<telemetry::LatencyHistogram*> stage_hists;
  if (config_.metrics != nullptr) {
    stage_hists.reserve(num_stages);
    for (std::size_t s = 0; s < num_stages; ++s)
      stage_hists.push_back(&config_.metrics->histogram(
          "serving.stage_latency_ms.stage" + std::to_string(s)));
  }

  // Each request's one feature buffer: the trunk output of its last stage.
  // Stage 0 reads the request's input in place, so this is first allocated
  // by stage 0's output (the largest) and reused by every later stage. Only
  // the worker holding a request touches its buffer.
  std::vector<Tensor> features(requests.size());

  // The peer workers share the engine under `mutex` and run stages outside
  // it. The bookkeeping after they join runs on the calling thread alone.
  Mutex mutex(LockRank::kEngine, "process_batch engine");

  // Runs stage `stage` of request i on `worker`, unlocked, then records it.
  // A stage that throws goes to the engine's failure rule, and is retried
  // at once on the same worker while the rule allows.
  auto run_stage = [&](std::size_t i, std::size_t stage, std::uint32_t worker) {
    const Tensor& input = stage == 0 ? requests[i].input : features[i];
    for (;;) {
      std::size_t label = 0;
      double confidence = 0.0;
      try {
        EUGENE_FAILPOINT("serving.stage.crash");
        Stopwatch stage_watch;
        const nn::StageOutput out = entry_.model.run_stage(stage, input);
        if (stage < stage_hists.size())
          stage_hists[stage]->record(stage_watch.elapsed_ms());
        // Copied into the request's own buffer, deliberately not moved in:
        // moving each stage's fresh tensor in would free and reallocate
        // 8/4/2 KB blocks interleaved across every live request of a large
        // batch, which fragments the heap and grows the resident set.
        features[i] = out.features;
        label = out.predicted_label;
        confidence = out.confidence;
      } catch (const std::exception& e) {
        MutexLock lock(mutex);
        const double now = clock.now_ms();
        engine.span(i).event(TraceEventKind::kStageError, now,
                             static_cast<std::uint32_t>(stage), worker);
        if (engine.fail(i, now, sched::classify_stage_error(e), worker)) continue;
        EUGENE_LOG(Warn) << "serving: request " << i << " gave up on stage " << stage
                         << ": " << e.what();
        return;
      }
      MutexLock lock(mutex);
      engine.complete(i, label, confidence, clock.now_ms(), worker);
      return;
    }
  };

  // The policy loop, one per worker and the only one: every request is
  // scheduled stage by stage until it completes, exits early, expires, or
  // degrades, and a stage runs only for the request Engine::next picked. A
  // worker stops once nothing is runnable: every unfinished request is then
  // held by a peer, which keeps picking until its own request is done.
  for (std::size_t i = 0; i < requests.size(); ++i) engine.enqueue(i);
  auto work = [&](std::uint32_t worker) {
    for (;;) {
      std::size_t task = 0;
      std::size_t stage = 0;
      {
        MutexLock lock(mutex);
        const double now = clock.now_ms();
        engine.expire_overdue(now);
        const std::optional<std::size_t> picked = engine.next(now);
        if (!picked.has_value()) return;
        engine.hold(*picked);
        task = *picked;
        stage = engine.result(task).stages_run;
      }
      run_stage(task, stage, worker);
    }
  };
  // The first thing any worker throws past the failure rule (an engine
  // invariant, a failed allocation) is rethrown here once every helper has
  // joined.
  std::exception_ptr escaped;
  auto work_or_keep = [&](std::uint32_t worker) {
    try {
      work(worker);
    } catch (...) {
      MutexLock lock(mutex);
      if (!escaped) escaped = std::current_exception();
    }
  };
  {
    const std::size_t peers = std::min(config_.workers, requests.size());
    std::vector<std::jthread> helpers;
    helpers.reserve(peers - 1);
    for (std::uint32_t w = 1; w < peers; ++w) helpers.emplace_back(work_or_keep, w);
    work_or_keep(0);
  }
  if (escaped) std::rethrow_exception(escaped);
  EUGENE_CHECK_EQ(engine.unfinished(), 0u)
      << "process_batch: requests left unfinished with nothing runnable";

  std::vector<InferenceResponse> responses = engine.take_results();

  if (config_.metrics != nullptr) {
    // inc(0) still registers the instrument, so every serving counter is
    // present in metrics_text() even on an uneventful batch.
    telemetry::MetricsRegistry& m = *config_.metrics;
    std::size_t expired = 0;
    std::size_t degraded = 0;
    std::size_t retries = 0;
    for (const InferenceResponse& r : responses) {
      expired += r.expired ? 1 : 0;
      degraded += r.degraded ? 1 : 0;
      retries += r.retries;
    }
    m.counter("serving.requests").inc(requests.size());
    m.counter("serving.expired").inc(expired);
    m.counter("serving.degraded").inc(degraded);
    m.counter("serving.retries").inc(retries);
  }
  return responses;
}

}  // namespace eugene::serving
