#include "serving/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "sched/policy.hpp"

namespace eugene::serving {

using tensor::Tensor;

InferenceServer::InferenceServer(const ModelEntry& entry, ServerConfig config)
    : entry_(entry), config_(std::move(config)) {
  EUGENE_REQUIRE(entry_.curves.fitted(),
                 "InferenceServer: model has no fitted confidence curves; "
                 "calibrate and fit curves before serving");
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

namespace {

struct RequestState {
  /// The request's one feature buffer: the trunk output of its last stage.
  /// Stage 0 reads the request's input in place, so this is first allocated
  /// by stage 0's output (the largest) and reused by every later stage.
  Tensor features;
  std::vector<double> observed;
  std::size_t stages_done = 0;
  std::size_t label = 0;
  std::size_t retries = 0;
  bool done = false;
  bool expired = false;
  bool degraded = false;
  bool browned_out = false;
  double first_stage_ms = -1.0;  ///< admission-to-first-stage queue delay
  double finish_ms = 0.0;
  telemetry::SpanHandle span;  ///< per-request timeline (null when untraced)
};

/// Closes a request's span: stage = stages completed, value = confidence.
void end_span(RequestState& s, double now) {
  s.span.event(telemetry::TraceEventKind::kExit, now,
               static_cast<std::uint32_t>(s.stages_done), 0,
               s.observed.empty() ? 0.0 : s.observed.back());
}

}  // namespace

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

  // Lifecycle gate (DESIGN.md §13): checked before every other admission
  // decision — including the brown-out seam below — so a draining server
  // answers with typed drain rejections, never brown-out sheds. No stage
  // runs for a rejected batch.
  if (config_.lifecycle != nullptr &&
      !config_.lifecycle->try_admit(requests.size())) {
    WallClock reject_clock;
    const double now = reject_clock.now_ms();
    std::vector<InferenceResponse> rejected(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      rejected[i].draining = true;
      if (config_.trace != nullptr) {
        telemetry::SpanHandle span = config_.trace->begin_span(
            now, static_cast<std::uint32_t>(requests[i].service_class));
        span.event(telemetry::TraceEventKind::kDrain, now);
        rejected[i].span_id = span.id();
      }
    }
    if (config_.metrics != nullptr)
      config_.metrics->counter("serving.drain.rejections").inc(requests.size());
    return rejected;
  }
  // Every admitted unit is finished exactly once, on every exit path — this
  // is what makes begin_drain()'s in-flight count reach zero.
  struct LifecycleFinisher {
    ServerLifecycle* lifecycle;
    std::size_t units;
    ~LifecycleFinisher() {
      if (lifecycle != nullptr) lifecycle->finish(units);
    }
  } finisher{config_.lifecycle, requests.size()};

  const std::size_t num_stages = entry_.model.num_stages();
  sched::GpUtilityEstimator estimator(entry_.curves);
  sched::GreedyUtilityPolicy policy(estimator, config_.lookahead);
  std::vector<double> weights;
  weights.reserve(config_.classes.size());
  for (const auto& c : config_.classes) weights.push_back(c.utility_weight);
  policy.set_service_weights(std::move(weights));

  std::vector<RequestState> state(requests.size());
  for (RequestState& s : state) s.observed.reserve(num_stages);

  WallClock clock;

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

  // Runs one stage for request `i`, absorbing injected or real stage
  // failures: a throwing stage is retried up to max_stage_retries times;
  // past the budget the request completes degraded with its best result so
  // far. Returns false when the request was finished by the failure path.
  auto run_stage_guarded = [&](std::size_t i) -> bool {
    RequestState& s = state[i];
    const Tensor& input = s.stages_done == 0 ? requests[i].input : s.features;
    for (;;) {
      try {
        EUGENE_FAILPOINT("serving.stage.crash");
        Stopwatch stage_watch;
        const nn::StageOutput out = entry_.model.run_stage(s.stages_done, input);
        if (s.stages_done < stage_hists.size())
          stage_hists[s.stages_done]->record(stage_watch.elapsed_ms());
        if (s.span)
          s.span.event(TraceEventKind::kStageDone, clock.now_ms(),
                       static_cast<std::uint32_t>(s.stages_done), 0,
                       out.confidence);
        ++s.stages_done;
        s.observed.push_back(out.confidence);
        s.label = out.predicted_label;
        // Copied into the request's own buffer, deliberately not moved in:
        // moving each stage's fresh tensor in would free and reallocate
        // 8/4/2 KB blocks interleaved across every live request of a large
        // batch, which fragments the heap and grows the resident set.
        s.features = out.features;
        return true;
      } catch (const Error& e) {
        ++s.retries;
        if (s.span)
          s.span.event(TraceEventKind::kStageError, clock.now_ms(),
                       static_cast<std::uint32_t>(s.stages_done));
        if (s.retries > config_.max_stage_retries) {
          EUGENE_LOG(Warn) << "serving: request " << i
                           << " exhausted stage retries; degrading: " << e.what();
          s.done = true;
          s.degraded = true;
          s.finish_ms = clock.now_ms();
          s.span.event(TraceEventKind::kDegrade, s.finish_ms);
          end_span(s, s.finish_ms);
          return false;
        }
        if (s.span)
          s.span.event(TraceEventKind::kRetry, clock.now_ms(),
                       static_cast<std::uint32_t>(s.stages_done));
      }
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

  // Open one span per request at admission; a non-zero brown-out level is
  // part of every request's admission record (the chaos-seam trace test
  // pins this on admit.brownout.force).
  if (config_.trace != nullptr) {
    const double admit_ms = clock.now_ms();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      state[i].span = config_.trace->begin_span(
          admit_ms, static_cast<std::uint32_t>(requests[i].service_class));
      if (level > 0)
        state[i].span.event(TraceEventKind::kBrownout, admit_ms, 0, 0,
                            static_cast<double>(level));
    }
  }

  // Admission control: everything past the effective capacity is shed, not
  // rejected. A shed request answers from the earliest exit that clears the
  // (possibly browned-out) shed confidence, bounded by the stage budget —
  // the cheapest valid answer the multi-exit model can give.
  const bool overloaded = requests.size() > eff_capacity;
  std::size_t remaining = requests.size();
  if (overloaded) {
    EUGENE_LOG(Warn) << "serving: batch of " << requests.size() << " exceeds "
                     << "effective admission capacity " << eff_capacity
                     << " (brown-out level " << level << "); shedding "
                     << (requests.size() - eff_capacity)
                     << " request(s) to the earliest confident exit";
    const std::size_t stage_budget = std::min(eff_shed_stages, num_stages);
    for (std::size_t i = eff_capacity; i < requests.size(); ++i) {
      RequestState& s = state[i];
      // browned_out marks the requests the *controller* shed: those the
      // static ceiling alone would have admitted.
      s.browned_out = i < base_capacity;
      if (s.span)
        s.span.event(TraceEventKind::kShed, clock.now_ms(), 0, 0,
                     s.browned_out ? 1.0 : 0.0);
      while (!s.done && s.stages_done < stage_budget) {
        if (!run_stage_guarded(i)) break;
        if (s.observed.back() >= eff_shed_confidence) break;
      }
      if (!s.done) {
        s.done = true;
        s.degraded = true;
        s.finish_ms = clock.now_ms();
        s.span.event(TraceEventKind::kDegrade, s.finish_ms);
        end_span(s, s.finish_ms);
      }
      --remaining;
    }
  }

  // The runnable set, built once in request order and kept current: the
  // picked entry is updated in place after its stage, a finished request is
  // erased in place (the policy breaks exact ties by runnable order), and the
  // deadline sweep runs only once the clock passes the earliest live
  // deadline. The loop itself allocates nothing per pick.
  std::vector<sched::TaskView> runnable;
  runnable.reserve(remaining);
  double next_deadline = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i].done || state[i].stages_done >= num_stages) continue;
    sched::TaskView v;
    v.task_id = i;
    v.service = requests[i].service_class;
    v.total_stages = num_stages;
    v.deadline_ms = config_.classes[requests[i].service_class].deadline_ms;
    next_deadline = std::min(next_deadline, v.deadline_ms);
    runnable.push_back(v);
  }

  while (remaining > 0) {
    const double now = clock.now_ms();
    // Latency daemon sweep: expire overdue requests.
    if (now >= next_deadline) {
      next_deadline = std::numeric_limits<double>::infinity();
      std::size_t kept = 0;
      for (const sched::TaskView& v : runnable) {
        if (now < v.deadline_ms) {
          next_deadline = std::min(next_deadline, v.deadline_ms);
          runnable[kept++] = v;
          continue;
        }
        RequestState& s = state[v.task_id];
        s.done = true;
        s.expired = true;
        s.finish_ms = now;
        --remaining;
        s.span.event(TraceEventKind::kExpire, now);
        end_span(s, now);
      }
      runnable.resize(kept);
      if (remaining == 0) break;
    }

    EUGENE_CHECK(!runnable.empty())
        << "process_batch: " << remaining << " live requests but none runnable";
    const auto choice = policy.pick(runnable, now);
    EUGENE_CHECK(choice.has_value()) << "process_batch: policy returned no task";
    // Task ids are request indices, so the runnable set is sorted by id.
    const auto picked = std::lower_bound(
        runnable.begin(), runnable.end(), *choice,
        [](const sched::TaskView& v, std::size_t id) { return v.task_id < id; });
    EUGENE_CHECK(picked != runnable.end() && picked->task_id == *choice)
        << "process_batch: policy picked task " << *choice << ", which is not runnable";

    RequestState& s = state[*choice];
    if (s.first_stage_ms < 0.0) s.first_stage_ms = now;  // queue delay sample
    if (!run_stage_guarded(*choice)) {
      --remaining;
    } else {
      policy.on_stage_complete(*choice, s.stages_done - 1, s.observed.back());
      if (s.stages_done == num_stages ||
          s.observed.back() >= config_.early_exit_confidence) {
        s.done = true;
        s.finish_ms = clock.now_ms();
        --remaining;
        end_span(s, s.finish_ms);
      }
    }
    if (s.done) {
      runnable.erase(picked);
    } else {
      picked->stages_done = s.stages_done;
      picked->observed_confidence = s.observed;
    }
  }

  // Feed the measured queue delay back into the brown-out controller: the
  // class-weighted mean admission-to-first-stage delay of the admitted
  // requests, against the class-weighted setpoint. Over the setpoint the
  // level escalates (shedding more next batch); comfortably under it
  // (recover_ratio hysteresis) the level steps back down.
  if (bo.enabled) {
    double weighted_delay = 0.0;
    double weighted_setpoint = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (state[i].first_stage_ms < 0.0) continue;  // shed or never scheduled
      const ServiceClassConfig& cls = config_.classes[requests[i].service_class];
      const double setpoint = std::isfinite(cls.deadline_ms)
                                  ? cls.deadline_ms * bo.setpoint_fraction
                                  : bo.setpoint_ms;
      weighted_delay += cls.utility_weight * state[i].first_stage_ms;
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

  if (config_.metrics != nullptr) {
    // inc(0) still registers the instrument, so every serving counter is
    // present in metrics_text() even on an uneventful batch.
    telemetry::MetricsRegistry& m = *config_.metrics;
    std::size_t expired = 0;
    std::size_t degraded = 0;
    std::size_t brownout_sheds = 0;
    std::size_t retries = 0;
    for (const RequestState& s : state) {
      expired += s.expired ? 1 : 0;
      degraded += s.degraded ? 1 : 0;
      brownout_sheds += s.browned_out ? 1 : 0;
      retries += s.retries;
    }
    m.counter("serving.requests").inc(requests.size());
    m.counter("serving.sheds").inc(overloaded ? requests.size() - eff_capacity : 0);
    m.counter("serving.brownout_sheds").inc(brownout_sheds);
    m.counter("serving.expired").inc(expired);
    m.counter("serving.degraded").inc(degraded);
    m.counter("serving.retries").inc(retries);
    m.gauge("serving.brownout.level").set(static_cast<double>(brownout_level_));
  }

  std::vector<InferenceResponse> responses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i].label = state[i].label;
    responses[i].confidence = state[i].observed.empty() ? 0.0 : state[i].observed.back();
    responses[i].stages_run = state[i].stages_done;
    responses[i].expired = state[i].expired;
    responses[i].degraded = state[i].degraded;
    responses[i].browned_out = state[i].browned_out;
    responses[i].retries = state[i].retries;
    responses[i].latency_ms = state[i].finish_ms;
    responses[i].span_id = state[i].span.id();
  }
  return responses;
}

}  // namespace eugene::serving
