#include "serving/server.hpp"

#include <algorithm>
#include <cmath>
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
  EUGENE_REQUIRE(config_.shed_max_stages >= 1,
                 "InferenceServer: shed requests need at least one stage");
  EUGENE_REQUIRE(config_.shed_confidence <= 1.0,
                 "InferenceServer: shed_confidence above 1 would never stop");
  const BrownoutConfig& bo = config_.brownout;
  EUGENE_REQUIRE(bo.setpoint_fraction > 0.0,
                 "InferenceServer: brownout setpoint_fraction must be positive");
  EUGENE_REQUIRE(bo.setpoint_ms >= 0.0,
                 "InferenceServer: brownout setpoint_ms must be non-negative");
  EUGENE_REQUIRE(bo.capacity_step >= 0.0 && bo.capacity_step <= 1.0,
                 "InferenceServer: brownout capacity_step outside [0,1]");
  EUGENE_REQUIRE(bo.confidence_step >= 0.0,
                 "InferenceServer: brownout confidence_step must be non-negative");
  EUGENE_REQUIRE(bo.recover_ratio >= 0.0 && bo.recover_ratio < 1.0,
                 "InferenceServer: brownout recover_ratio outside [0,1)");
}

std::vector<InferenceResponse> InferenceServer::process_batch(
    const std::vector<InferenceRequest>& requests) {
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

  // Lifecycle gate (DESIGN.md §13): checked before every other admission
  // decision — including the brown-out seam below — so a draining server
  // answers with typed drain rejections, never brown-out sheds. No stage
  // runs for a rejected batch.
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
  // it. The shed loop before them and the bookkeeping after they join run
  // on the calling thread alone.
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

  // Adaptive admission (DESIGN.md §11): the brown-out level — escalated by
  // the controller at the end of earlier batches, or forced by the
  // admit.brownout.force chaos seam — shrinks the effective capacity and
  // cheapens the shed answer. At level 0 this is exactly the static
  // admission controller; the static capacity is always the hard ceiling.
  const BrownoutConfig& bo = config_.brownout;
  if (bo.enabled && EUGENE_FAILPOINT_FIRED("admit.brownout.force"))
    brownout_level_ = std::min(brownout_level_ + 1, bo.max_level);
  const std::size_t level = bo.enabled ? brownout_level_ : 0;
  const std::size_t base_capacity = config_.admission_capacity > 0
                                        ? config_.admission_capacity
                                        : requests.size();
  std::size_t eff_capacity = base_capacity;
  double eff_shed_confidence = config_.shed_confidence;
  std::size_t eff_shed_stages = config_.shed_max_stages;
  if (level > 0) {
    const double keep =
        std::max(0.0, 1.0 - static_cast<double>(level) * bo.capacity_step);
    eff_capacity = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(static_cast<double>(base_capacity) * keep)));
    eff_capacity = std::min(eff_capacity, base_capacity);
    eff_shed_confidence = std::max(
        0.0, config_.shed_confidence -
                 static_cast<double>(level) * bo.confidence_step);
    eff_shed_stages =
        config_.shed_max_stages > level ? config_.shed_max_stages - level : 1;
  }

  // A non-zero brown-out level is part of every request's admission record
  // (the chaos-seam trace test pins this on admit.brownout.force).
  if (level > 0) {
    const double admit_ms = clock.now_ms();
    for (std::size_t i = 0; i < requests.size(); ++i)
      engine.span(i).event(TraceEventKind::kBrownout, admit_ms, 0, 0,
                           static_cast<double>(level));
  }

  // Admission control: everything past the effective capacity is shed, not
  // rejected. A shed request answers from the earliest exit that clears the
  // (possibly browned-out) shed confidence, bounded by the stage budget —
  // the cheapest valid answer the multi-exit model can give. It never
  // enters the runnable set. browned_out marks the requests the
  // *controller* shed: those the static ceiling alone would have admitted.
  const std::size_t admitted = std::min(eff_capacity, requests.size());
  if (admitted < requests.size()) {
    EUGENE_LOG(Warn) << "serving: batch of " << requests.size() << " exceeds "
                     << "effective admission capacity " << eff_capacity
                     << " (brown-out level " << level << "); shedding "
                     << (requests.size() - admitted)
                     << " request(s) to the earliest confident exit";
    const std::size_t stage_budget = std::min(eff_shed_stages, num_stages);
    for (std::size_t i = admitted; i < requests.size(); ++i) {
      engine.span(i).event(TraceEventKind::kShed, clock.now_ms(), 0, 0,
                           i < base_capacity ? 1.0 : 0.0);
      while (!engine.finished(i) && engine.result(i).stages_run < stage_budget) {
        run_stage(i, engine.result(i).stages_run, 0);
        if (engine.result(i).confidence >= eff_shed_confidence) break;
      }
      if (!engine.finished(i)) engine.degrade(i, clock.now_ms());
    }
  }

  // The policy loop, one per worker: every admitted request is scheduled
  // stage by stage until it completes, exits early, expires, or degrades. A
  // worker stops once nothing is runnable: every unfinished request is then
  // held by a peer, which keeps picking until its own request is done.
  for (std::size_t i = 0; i < admitted; ++i) engine.enqueue(i);
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
    const std::size_t peers = std::max<std::size_t>(std::min(config_.workers, admitted), 1);
    std::vector<std::jthread> helpers;
    helpers.reserve(peers - 1);
    for (std::uint32_t w = 1; w < peers; ++w) helpers.emplace_back(work_or_keep, w);
    work_or_keep(0);
  }
  if (escaped) std::rethrow_exception(escaped);
  EUGENE_CHECK_EQ(engine.unfinished(), 0u)
      << "process_batch: requests left unfinished with nothing runnable";

  // Feed the measured queue delay back into the brown-out controller: the
  // class-weighted mean admission-to-first-stage delay of the admitted
  // requests, against the class-weighted setpoint. Over the setpoint the
  // level escalates (shedding more next batch); comfortably under it
  // (recover_ratio hysteresis) the level steps back down.
  if (bo.enabled) {
    double weighted_delay = 0.0;
    double weighted_setpoint = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::optional<double> delay = engine.queue_delay_ms(i);
      if (!delay.has_value()) continue;  // shed or never scheduled
      const ServiceClassConfig& cls = config_.classes[requests[i].service_class];
      const double setpoint = std::isfinite(cls.deadline_ms)
                                  ? cls.deadline_ms * bo.setpoint_fraction
                                  : bo.setpoint_ms;
      weighted_delay += cls.utility_weight * *delay;
      weighted_setpoint += cls.utility_weight * setpoint;
    }
    if (weighted_setpoint > 0.0 || weighted_delay > 0.0) {
      const double ratio =
          weighted_setpoint > 0.0
              ? weighted_delay / weighted_setpoint
              : std::numeric_limits<double>::infinity();
      if (ratio > 1.0 && brownout_level_ < bo.max_level) {
        ++brownout_level_;
        EUGENE_LOG(Warn) << "serving: queue delay at " << ratio
                         << "x the setpoint; brown-out escalates to level "
                         << brownout_level_;
      } else if (ratio < bo.recover_ratio && brownout_level_ > 0) {
        --brownout_level_;
        EUGENE_LOG(Info) << "serving: queue delay at " << ratio
                         << "x the setpoint; brown-out recovers to level "
                         << brownout_level_;
      }
    }
  }

  std::vector<InferenceResponse> responses = engine.take_results();
  for (std::size_t i = admitted; i < requests.size(); ++i)
    responses[i].browned_out = i < base_capacity;

  if (config_.metrics != nullptr) {
    // inc(0) still registers the instrument, so every serving counter is
    // present in metrics_text() even on an uneventful batch.
    telemetry::MetricsRegistry& m = *config_.metrics;
    std::size_t expired = 0;
    std::size_t degraded = 0;
    std::size_t brownout_sheds = 0;
    std::size_t retries = 0;
    for (const InferenceResponse& r : responses) {
      expired += r.expired ? 1 : 0;
      degraded += r.degraded ? 1 : 0;
      brownout_sheds += r.browned_out ? 1 : 0;
      retries += r.retries;
    }
    m.counter("serving.requests").inc(requests.size());
    m.counter("serving.sheds").inc(requests.size() - admitted);
    m.counter("serving.brownout_sheds").inc(brownout_sheds);
    m.counter("serving.expired").inc(expired);
    m.counter("serving.degraded").inc(degraded);
    m.counter("serving.retries").inc(retries);
    m.gauge("serving.brownout.level").set(static_cast<double>(brownout_level_));
  }
  return responses;
}

}  // namespace eugene::serving
