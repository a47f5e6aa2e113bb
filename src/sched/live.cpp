#include "sched/live.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <thread>

#include "common/cancellation.hpp"
#include "common/channel.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/histogram.hpp"
#include "common/logging.hpp"

namespace eugene::sched {

using tensor::Tensor;

namespace {

/// Scheduler → worker: run stage `stage` of one task on `features`. The
/// token carries the task's absolute deadline and the scheduler's cancel
/// handle; the worker checks it before starting the stage.
struct Job {
  std::size_t stage = 0;
  std::uint64_t seq = 0;  ///< dispatch sequence; stale results are discarded
  Tensor features;        ///< the previous stage's output
  CancellationToken token;
};

/// Worker → scheduler: the paper's end-of-stage report (stage, label,
/// confidence) plus the features the next stage needs. ok=false with
/// recoverable=false is a crash report: the stage threw and the worker
/// thread is exiting, like a worker process dying. recoverable=true is a
/// sick-worker stage error: the worker lives. cancelled=true means the
/// worker skipped the stage cooperatively (token cancelled, or the
/// propagated deadline had already passed).
struct WorkerResult {
  std::size_t worker = 0;
  std::uint64_t seq = 0;
  bool ok = true;
  bool recoverable = false;
  bool cancelled = false;
  std::string error;   ///< what() of the failure, when !ok
  double stage_ms = 0.0;  ///< worker-measured stage execution time
  std::size_t stage = 0;  ///< the stage that ran, on success
  std::size_t label = 0;
  float confidence = 0.0f;
  Tensor features;
};

/// One outstanding dispatch of a task's current stage. A task has one entry
/// normally, two while a hedge race is in flight.
struct InFlightDispatch {
  std::size_t worker = 0;
  std::uint64_t seq = 0;
  bool hedge = false;  ///< this is the backup dispatch of a hedge pair
  CancellationToken token;
};

struct LiveTaskState {
  Tensor features;
  std::vector<double> observed_confidence;
  std::vector<InFlightDispatch> inflight;  ///< current-stage dispatches (≤ 2)
  std::size_t stages_done = 0;
  std::size_t last_label = 0;
  std::size_t retries = 0;
  double eligible_ms = 0.0;  ///< backoff gate: no dispatch before this time
  bool hedged_this_stage = false;
  bool done = false;
  bool expired = false;
  bool degraded = false;
  double submit_ms = 0.0;
  double finish_ms = 0.0;
  telemetry::SpanHandle span;  ///< per-request timeline (null when untraced)
};

/// Scheduler-side view of one worker. `seq` identifies the in-flight
/// dispatch so a report from an abandoned worker is recognizably stale.
struct WorkerSlot {
  bool busy = false;
  bool dead = false;
  std::uint64_t seq = 0;
  std::size_t task = 0;  ///< the dispatched task, while busy
  double dispatched_ms = 0.0;
};

}  // namespace

std::vector<LiveTaskResult> run_live(const nn::StagedModel& model, std::size_t workers,
                                     const gp::ConfidenceCurveModel& curves,
                                     const std::vector<Tensor>& inputs,
                                     const LiveConfig& config, LiveStats* stats) {
  // Validate everything a caller can get wrong *before* any thread starts,
  // so bad input surfaces as InvalidArgument here rather than an
  // InternalError deep inside a worker.
  EUGENE_REQUIRE(workers > 0, "run_live: need at least one worker");
  EUGENE_REQUIRE(!inputs.empty(), "run_live: empty input batch");
  const std::size_t num_stages = model.num_stages();
  EUGENE_REQUIRE(num_stages > 0, "run_live: model has no stages");
  for (const Tensor& input : inputs) {
    EUGENE_REQUIRE(input.numel() > 0, "run_live: empty input tensor in batch");
    EUGENE_REQUIRE(input.same_shape(inputs.front()),
                   "run_live: mismatched input shapes within batch");
  }
  EUGENE_REQUIRE(config.lookahead >= 1, "run_live: lookahead must be >= 1");
  EUGENE_REQUIRE(config.deadline_ms > 0.0, "run_live: deadline must be positive");
  EUGENE_REQUIRE(config.hedge_quantile > 0.0 && config.hedge_quantile <= 1.0,
                 "run_live: hedge_quantile outside (0, 1]");
  EUGENE_REQUIRE(config.hedge_min_samples >= 1,
                 "run_live: hedge_min_samples must be >= 1");
  EUGENE_REQUIRE(config.retry.jitter >= 0.0 && config.retry.jitter <= 1.0,
                 "run_live: retry.jitter outside [0, 1]");
  // One breaker per worker, living as long as the pool: a respawned worker
  // inherits its slot's history, so a persistently sick worker stays routed
  // around even across respawns. Built here because the constructor
  // validates config.health.
  std::deque<CircuitBreaker> breakers;
  for (std::size_t w = 0; w < workers; ++w) breakers.emplace_back(config.health);

  // Lifecycle gate (DESIGN.md §13): checked before any worker thread starts.
  // A draining server answers the whole batch with typed drained=true
  // results; an admitted batch holds `inputs.size()` in-flight units for the
  // duration of this call, so begin_drain() waits for it.
  if (config.lifecycle != nullptr && !config.lifecycle->try_admit(inputs.size())) {
    WallClock reject_clock;
    const double now = reject_clock.now_ms();
    std::vector<LiveTaskResult> rejected(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      rejected[i].task_id = i;
      rejected[i].drained = true;
      if (config.trace != nullptr) {
        telemetry::SpanHandle span = config.trace->begin_span(now);
        span.event(telemetry::TraceEventKind::kDrain, now);
        rejected[i].span_id = span.id();
      }
    }
    if (config.metrics != nullptr)
      config.metrics->counter("sched.live.drain.rejections").inc(inputs.size());
    return rejected;
  }
  struct LifecycleFinisher {
    eugene::ServerLifecycle* lifecycle;
    std::size_t units;
    ~LifecycleFinisher() {
      if (lifecycle != nullptr) lifecycle->finish(units);
    }
  } lifecycle_finisher{config.lifecycle, inputs.size()};

  GpUtilityEstimator estimator(curves);
  GreedyUtilityPolicy policy(estimator, config.lookahead);

  std::vector<Channel<Job>> job_channels(workers);
  Channel<WorkerResult> results;
  WallClock clock;

  // Worker body: block on the job channel, run one stage of the shared
  // model, report (stage, label, confidence) back. A throwing stage — real
  // bug or armed failpoint — becomes a crash report and thread exit,
  // mirroring a worker process dying; the supervisor handles the rest.
  auto worker_main = [&](std::size_t w) {
    while (auto job = job_channels[w].receive()) {
      WorkerResult res;
      res.worker = w;
      res.seq = job->seq;
      // Designated-worker chaos seam: worker 0 is "the sick worker".
      // kind=error injects a *recoverable* stage failure (the worker
      // reports it and keeps serving, unlike a crash); kind=delay makes
      // this worker a straggler.
      if (w == 0) {
        bool sick = false;
        try {
          EUGENE_FAILPOINT("live.worker.sick");
        } catch (const FailpointError& e) {
          res.ok = false;
          res.recoverable = true;
          res.error = e.what();
          sick = true;
        }
        if (sick) {
          results.send(std::move(res));
          continue;  // sick, not dead: keep draining the job channel
        }
      }
      // Cooperative cancellation + propagated deadline: never start a stage
      // whose result is unwanted (hedge race already decided) or could not
      // arrive in time (deadline passed). Stages cannot be interrupted
      // mid-kernel, so this pre-stage check is the cancellation point.
      if (job->token.should_stop(clock.now_ms())) {
        res.cancelled = true;
        results.send(std::move(res));
        continue;
      }
      try {
        EUGENE_FAILPOINT("live.worker.slow");
        EUGENE_FAILPOINT("live.worker.crash");
        Stopwatch stage_watch;
        nn::StageOutput out = model.run_stage(job->stage, job->features);
        res.stage_ms = stage_watch.elapsed_ms();
        res.stage = job->stage;
        res.label = out.predicted_label;
        res.confidence = out.confidence;
        res.features = std::move(out.features);
      } catch (const std::exception& e) {
        res.ok = false;
        res.error = e.what();
      }
      const bool crashed = !res.ok;
      results.send(std::move(res));
      if (crashed) return;  // the "process" is gone; supervisor may respawn
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);

  Rng backoff_rng(0xbacc0ff);
  LiveStats local_stats;
  std::vector<LiveTaskState> tasks(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    tasks[i].features = inputs[i];
    tasks[i].submit_ms = clock.now_ms();
    if (config.trace != nullptr)
      tasks[i].span = config.trace->begin_span(tasks[i].submit_ms);
  }

  using telemetry::TraceEventKind;
  // Per-stage latency histograms, resolved once — record() on them is
  // lock-free, so the hot result path never touches the registry mutex.
  std::vector<telemetry::LatencyHistogram*> stage_hists;
  if (config.metrics != nullptr) {
    stage_hists.reserve(num_stages);
    for (std::size_t s = 0; s < num_stages; ++s)
      stage_hists.push_back(&config.metrics->histogram(
          "sched.stage_latency_ms.stage" + std::to_string(s)));
  }

  // Closes a task's span: stage = stages completed, value = last confidence.
  auto end_span = [](LiveTaskState& t, double now) {
    t.span.event(TraceEventKind::kExit, now,
                 static_cast<std::uint32_t>(t.stages_done), 0,
                 t.observed_confidence.empty() ? 0.0
                                               : t.observed_confidence.back());
  };

  std::vector<WorkerSlot> slots(workers);
  std::size_t respawns_left = config.max_respawns;
  std::size_t unfinished = inputs.size();

  auto expire_if_due = [&](std::size_t i) {
    LiveTaskState& t = tasks[i];
    if (t.done || !t.inflight.empty()) return;
    if (clock.now_ms() - t.submit_ms >= config.deadline_ms) {
      // Latency daemon: the task leaves the system with its current result.
      t.done = true;
      t.expired = true;
      t.finish_ms = clock.now_ms();
      ++local_stats.expired;
      --unfinished;
      t.span.event(TraceEventKind::kExpire, t.finish_ms);
      end_span(t, t.finish_ms);
    }
  };

  // Removes the (worker, seq) dispatch from the task's in-flight set;
  // returns it if it was still there (i.e. the race was not yet decided).
  auto take_inflight = [&](LiveTaskState& t, std::size_t w,
                           std::uint64_t seq) -> std::optional<InFlightDispatch> {
    for (auto it = t.inflight.begin(); it != t.inflight.end(); ++it) {
      if (it->worker == w && it->seq == seq) {
        InFlightDispatch d = *it;
        t.inflight.erase(it);
        return d;
      }
    }
    return std::nullopt;
  };

  // Worker `w`'s in-flight dispatch failed (crash, silence, or recoverable
  // stage error). Frees the slot; if this was the task's last outstanding
  // dispatch, re-queue it after a jittered backoff while the retry budget
  // lasts — past the budget it completes degraded with its best result so
  // far. A still-racing hedge twin keeps the task alive without charging
  // the budget. The caller decides deadness and breaker bookkeeping.
  auto fail_dispatch = [&](std::size_t w) {
    WorkerSlot& slot = slots[w];
    if (!slot.busy) return;
    slot.busy = false;
    LiveTaskState& t = tasks[slot.task];
    const auto entry = take_inflight(t, w, slot.seq);
    if (!entry.has_value() || t.done) return;
    if (!t.inflight.empty()) return;  // the hedge twin is still racing
    const double now = clock.now_ms();
    if (now - t.submit_ms >= config.deadline_ms) {
      t.done = true;
      t.expired = true;
      t.finish_ms = now;
      ++local_stats.expired;
      --unfinished;
      t.span.event(TraceEventKind::kExpire, now);
      end_span(t, now);
    } else if (t.retries < config.max_retries) {
      ++t.retries;
      ++local_stats.retries;
      const double backoff = backoff_delay_ms(config.retry, t.retries, backoff_rng);
      t.eligible_ms = now + backoff;
      t.hedged_this_stage = false;  // the re-dispatch may hedge again
      t.span.event(TraceEventKind::kRetry, now,
                   static_cast<std::uint32_t>(t.stages_done), 0, backoff);
    } else {
      t.done = true;
      t.degraded = true;
      t.finish_ms = now;
      ++local_stats.degraded;
      --unfinished;
      t.span.event(TraceEventKind::kDegrade, now);
      end_span(t, now);
    }
  };

  // Replaces a *crashed* worker with a fresh thread on its job channel.
  // Workers abandoned for silence are never respawned: the silent thread
  // is still alive and still drains that worker's job channel, so a
  // replacement would compete with it for jobs.
  auto maybe_respawn = [&](std::size_t w) {
    if (respawns_left == 0) return;
    --respawns_left;
    ++local_stats.respawns;
    slots[w] = WorkerSlot{};
    threads.emplace_back(worker_main, w);
  };

  std::uint64_t next_seq = 1;
  auto dispatch_to = [&](std::size_t w, std::size_t task, bool hedge) {
    LiveTaskState& t = tasks[task];
    Job job;
    job.stage = t.stages_done;
    job.seq = next_seq++;
    job.features = t.features;
    // Deadline propagation: the worker sees the task's absolute deadline and
    // the scheduler keeps a cancel handle for the hedge race.
    job.token = CancellationToken(t.submit_ms + config.deadline_ms);
    WorkerSlot& slot = slots[w];
    slot.busy = true;
    slot.seq = job.seq;
    slot.task = task;
    slot.dispatched_ms = clock.now_ms();
    t.inflight.push_back({w, job.seq, hedge, job.token});
    t.span.event(hedge ? TraceEventKind::kHedge : TraceEventKind::kDispatch,
                 slot.dispatched_ms, static_cast<std::uint32_t>(job.stage),
                 static_cast<std::uint32_t>(w));
    job_channels[w].send(std::move(job));
  };

  // Free workers whose breakers admit traffic, healthiest first (error-rate
  // EWMA dominates, latency EWMA breaks ties). Routing around an open
  // breaker is what spares the retry budget on a sick worker.
  auto ready_workers_ranked = [&](double now) {
    std::vector<std::size_t> ready;
    for (std::size_t w = 0; w < workers; ++w) {
      if (slots[w].busy || slots[w].dead) continue;
      if (config.health.enabled && !breakers[w].allow(now)) {
        ++local_stats.breaker_skips;
        continue;
      }
      ready.push_back(w);
    }
    std::stable_sort(ready.begin(), ready.end(),
                     [&](std::size_t a, std::size_t b) {
                       return breakers[a].score() < breakers[b].score();
                     });
    return ready;
  };

  auto dispatch = [&]() {
    for (;;) {
      const double now = clock.now_ms();
      const auto ready = ready_workers_ranked(now);
      if (ready.empty()) return;
      std::vector<TaskView> runnable;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        expire_if_due(i);
        const LiveTaskState& t = tasks[i];
        if (t.done || !t.inflight.empty() || t.stages_done >= num_stages) continue;
        if (now < t.eligible_ms) continue;  // still backing off
        TaskView v;
        v.task_id = i;
        v.service = 0;
        v.stages_done = t.stages_done;
        v.total_stages = num_stages;
        v.arrival_ms = t.submit_ms;
        v.deadline_ms = t.submit_ms + config.deadline_ms;
        v.observed_confidence = t.observed_confidence;
        runnable.push_back(v);
      }
      if (runnable.empty()) return;
      const auto choice = policy.pick(runnable, now);
      if (!choice.has_value()) return;
      dispatch_to(ready.front(), *choice, /*hedge=*/false);
    }
  };

  // Dispatch-to-result latencies feeding the hedge threshold. A lock-free
  // log-bucketed histogram replaces the old 64-sample window: record is two
  // relaxed atomic adds and quantile() walks 98 fixed buckets — no
  // copy-and-nth_element per sweep (BM_HedgeQuantileLegacyWindow in
  // bench_micro.cpp keeps the before/after comparison honest). Nearest-rank
  // (ceil) semantics also fix the old floor-rank bias that under-read the
  // quantile (q=0.5 of two samples returned the max, not the median).
  telemetry::LatencyHistogram lat_hist;
  auto note_latency = [&](double ms, std::size_t stage) {
    lat_hist.record(ms);
    if (stage < stage_hists.size()) stage_hists[stage]->record(ms);
  };
  // One threshold per wake (satellite fix: the sweep used to recompute the
  // quantile in maybe_hedge *and* in the hedge-aware wake computation — two
  // full window copies per loop iteration, and the two could disagree when
  // a result landed between them). nullopt = hedging off or warming up.
  auto hedge_threshold = [&]() -> std::optional<double> {
    if (!config.hedging || lat_hist.count() < config.hedge_min_samples)
      return std::nullopt;
    return std::max(lat_hist.quantile(config.hedge_quantile),
                    config.hedge_min_ms);
  };

  // Hedge sweep: a dispatch out longer than the observed latency quantile
  // gets one backup dispatch of the same stage on the healthiest free
  // worker. First result wins; the loser is cancelled through its token
  // and its eventual report is recognized by sequence number and dropped.
  auto maybe_hedge = [&](std::optional<double> threshold_opt) {
    if (!threshold_opt.has_value()) return;
    const double threshold = *threshold_opt;
    const double now = clock.now_ms();
    for (std::size_t w = 0; w < workers; ++w) {
      WorkerSlot& slot = slots[w];
      if (!slot.busy || slot.dead) continue;
      if (now - slot.dispatched_ms < threshold) continue;
      const std::size_t task = slot.task;
      LiveTaskState& t = tasks[task];
      if (t.done || t.hedged_this_stage || t.inflight.size() != 1) continue;
      if (t.inflight.front().worker != w || t.inflight.front().seq != slot.seq)
        continue;
      const auto ready = ready_workers_ranked(now);
      if (ready.empty()) continue;  // no spare healthy worker: no hedge
      t.hedged_this_stage = true;
      ++local_stats.hedges_issued;
      dispatch_to(ready.front(), task, /*hedge=*/true);
      EUGENE_LOG(Debug) << "live: hedging task " << task << " stage "
                        << t.stages_done << " (worker " << w << " out "
                        << (now - slot.dispatched_ms) << " ms, threshold "
                        << threshold << " ms) on worker " << ready.front();
      if (EUGENE_FAILPOINT_FIRED("hedge.lose.race")) {
        // Chaos seam: force the primary to lose so the loser-cancellation
        // path runs deterministically.
        for (auto& d : t.inflight)
          if (d.worker == w) d.token.cancel();
      }
    }
  };

  dispatch();
  while (unfinished > 0) {
    for (std::size_t i = 0; i < tasks.size(); ++i) expire_if_due(i);
    if (unfinished == 0) break;

    // Heartbeat supervision: a busy worker silent past the timeout is
    // abandoned — its task is re-queued and any later report from it is
    // stale (sequence mismatch) and dropped.
    if (std::isfinite(config.worker_timeout_ms)) {
      const double now = clock.now_ms();
      for (std::size_t w = 0; w < workers; ++w) {
        if (slots[w].busy && !slots[w].dead &&
            now - slots[w].dispatched_ms >= config.worker_timeout_ms) {
          ++local_stats.worker_timeouts;
          EUGENE_LOG(Warn) << "live: worker " << w << " silent for "
                           << (now - slots[w].dispatched_ms)
                           << " ms; abandoning it and re-queueing task "
                           << slots[w].task;
          slots[w].dead = true;
          breakers[w].record_failure(now);
          LiveTaskState& t = tasks[slots[w].task];
          t.span.event(TraceEventKind::kStageError, now,
                       static_cast<std::uint32_t>(t.stages_done),
                       static_cast<std::uint32_t>(w));
          fail_dispatch(w);
        }
      }
    }

    // Degrade-never-fail: with every worker dead, remaining tasks answer
    // with what they have instead of waiting forever.
    bool any_alive = false;
    for (const WorkerSlot& s : slots) any_alive |= !s.dead;
    if (!any_alive) {
      const double now = clock.now_ms();
      for (LiveTaskState& t : tasks) {
        if (t.done) continue;
        t.done = true;
        t.degraded = true;
        t.finish_ms = now;
        ++local_stats.degraded;
        --unfinished;
        t.span.event(TraceEventKind::kDegrade, now);
        end_span(t, now);
      }
      break;
    }

    // Compute the hedge threshold once per wake and share it between the
    // hedge sweep and the hedge-aware wake window below.
    const std::optional<double> threshold = hedge_threshold();
    maybe_hedge(threshold);
    dispatch();

    bool any_running = false;
    for (const WorkerSlot& s : slots) any_running |= s.busy && !s.dead;

    // Bounded wait so deadline expiry, heartbeat sweeps, breaker cooldowns,
    // and hedge decisions all run even when every worker has gone silent.
    // With nothing in flight (everything waits on a deadline, a backoff
    // window, or a breaker cooldown) poll faster; the CondVar inside the
    // channel keeps this cancellation-aware — a result or close() wakes it
    // immediately, unlike the raw sleep this replaces.
    double wait_ms = any_running ? 5.0 : 1.0;
    // Hedge-aware wake: when a spare healthy worker exists, wake exactly
    // when the oldest hedgeable dispatch crosses the hedge threshold —
    // otherwise a quiet pool (every task pending on one straggler) would
    // snooze the full fallback and hedge late. With no spare worker there
    // is nothing to hedge onto, and the result that frees one wakes us.
    if (threshold.has_value()) {
      const double now = clock.now_ms();
      if (!ready_workers_ranked(now).empty()) {
        for (std::size_t w = 0; w < workers; ++w) {
          const WorkerSlot& s = slots[w];
          if (!s.busy || s.dead) continue;
          const LiveTaskState& t = tasks[s.task];
          if (t.done || t.hedged_this_stage) continue;
          const double until = s.dispatched_ms + *threshold - now;
          wait_ms = std::min(wait_ms, std::max(until, 0.1));
        }
      }
    }
    auto res = results.receive_for(wait_ms);
    if (!res.has_value()) continue;
    EUGENE_CHECK_LT(res->worker, workers) << "stage report from unknown worker";
    WorkerSlot& slot = slots[res->worker];
    const bool current = slot.busy && !slot.dead && res->seq == slot.seq;
    if (!current) continue;  // stale report from an abandoned worker

    const double now = clock.now_ms();

    if (res->cancelled) {
      // The worker honored a cancellation (hedge race decided against it,
      // or the propagated deadline had passed). No breaker penalty: the
      // worker did nothing wrong. Only a dispatch still in the in-flight
      // set counts as newly cancelled — a decided hedge race already
      // counted its loser when the winner was processed.
      slot.busy = false;
      LiveTaskState& t = tasks[slot.task];
      if (take_inflight(t, res->worker, res->seq).has_value()) {
        ++local_stats.cancelled;
        t.span.event(TraceEventKind::kCancel, now,
                     static_cast<std::uint32_t>(t.stages_done),
                     static_cast<std::uint32_t>(res->worker));
      }
      dispatch();
      continue;
    }

    if (!res->ok) {
      // A recoverable failure is a sick-worker stage error and the worker
      // lives; any other failure is a crash and the worker thread has exited.
      breakers[res->worker].record_failure(now);
      if (res->recoverable) {
        ++local_stats.worker_errors;
        EUGENE_LOG(Warn) << "live: worker " << res->worker
                         << " failed a stage of task " << slot.task
                         << " (recoverable): " << res->error;
      } else {
        ++local_stats.worker_crashes;
        EUGENE_LOG(Warn) << "live: worker " << res->worker
                         << " crashed running task " << slot.task << ": "
                         << res->error;
        slot.dead = true;
      }
      const LiveTaskState& t = tasks[slot.task];
      t.span.event(TraceEventKind::kStageError, now,
                   static_cast<std::uint32_t>(t.stages_done),
                   static_cast<std::uint32_t>(res->worker));
      fail_dispatch(res->worker);
      if (!res->recoverable) maybe_respawn(res->worker);
      dispatch();
      continue;
    }

    // Successful stage execution: good for the worker's health either way,
    // and a fresh latency observation for the hedge threshold.
    breakers[res->worker].record_success(res->stage_ms, now);
    note_latency(now - slot.dispatched_ms, res->stage);
    slot.busy = false;
    const std::size_t task_id = slot.task;
    LiveTaskState& t = tasks[task_id];
    const auto won = take_inflight(t, res->worker, res->seq);
    if (!won.has_value()) {
      // Hedge-race loser: its twin already advanced the task. The result is
      // valid but redundant; the sequence bookkeeping keeps it out of task
      // state (no result races).
      dispatch();
      continue;
    }
    if (won->hedge) ++local_stats.hedges_won;
    // Decide the race: cancel any still-outstanding twin cooperatively
    // (counted now, when the race is decided — the loser's acknowledgment
    // may arrive after the batch completes). Its eventual report (success,
    // cancelled, or crash) is handled above as a non-in-flight event.
    local_stats.cancelled += t.inflight.size();
    for (auto& d : t.inflight) {
      d.token.cancel();
      t.span.event(TraceEventKind::kCancel, now,
                   static_cast<std::uint32_t>(t.stages_done),
                   static_cast<std::uint32_t>(d.worker));
    }
    t.inflight.clear();
    t.hedged_this_stage = false;

    EUGENE_CHECK_EQ(res->stage, t.stages_done)
        << "out-of-order stage report for task " << task_id;
    if (!t.done && now - t.submit_ms < config.deadline_ms) {
      // In-deadline result: accept it.
      t.span.event(TraceEventKind::kStageDone, now,
                   static_cast<std::uint32_t>(res->stage),
                   static_cast<std::uint32_t>(res->worker), res->confidence);
      ++t.stages_done;
      t.observed_confidence.push_back(res->confidence);
      t.last_label = res->label;
      t.features = std::move(res->features);
      policy.on_stage_complete(task_id, res->stage, res->confidence);
      if (t.stages_done == num_stages ||
          res->confidence >= config.early_exit_confidence) {
        t.done = true;
        t.finish_ms = now;
        --unfinished;
        end_span(t, now);
      }
    } else if (!t.done) {
      // The daemon's stage-granularity kill: discard the late result.
      t.done = true;
      t.expired = true;
      t.finish_ms = now;
      ++local_stats.expired;
      --unfinished;
      t.span.event(TraceEventKind::kExpire, now);
      end_span(t, now);
    }
    dispatch();
  }

  for (auto& ch : job_channels) ch.close();
  for (auto& th : threads) th.join();
  results.close();

  for (const auto& b : breakers) local_stats.breaker_trips += b.trips();
  if (stats != nullptr) *stats = local_stats;

  if (config.metrics != nullptr) {
    // inc(0) still registers the instrument, so metrics_text() lists every
    // counter even on an uneventful run (the parse test relies on that).
    telemetry::MetricsRegistry& m = *config.metrics;
    m.counter("sched.live.tasks").inc(tasks.size());
    m.counter("sched.live.worker_crashes").inc(local_stats.worker_crashes);
    m.counter("sched.live.worker_timeouts").inc(local_stats.worker_timeouts);
    m.counter("sched.live.worker_errors").inc(local_stats.worker_errors);
    m.counter("sched.live.respawns").inc(local_stats.respawns);
    m.counter("sched.live.retries").inc(local_stats.retries);
    m.counter("sched.live.degraded").inc(local_stats.degraded);
    m.counter("sched.live.expired").inc(local_stats.expired);
    m.counter("sched.live.breaker_trips").inc(local_stats.breaker_trips);
    m.counter("sched.live.breaker_skips").inc(local_stats.breaker_skips);
    m.counter("sched.live.hedges_issued").inc(local_stats.hedges_issued);
    m.counter("sched.live.hedges_won").inc(local_stats.hedges_won);
    m.counter("sched.live.cancelled").inc(local_stats.cancelled);
  }

  std::vector<LiveTaskResult> out(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i].task_id = i;
    out[i].label = tasks[i].last_label;
    out[i].confidence = tasks[i].observed_confidence.empty()
                            ? 0.0
                            : tasks[i].observed_confidence.back();
    out[i].stages_run = tasks[i].stages_done;
    out[i].expired = tasks[i].expired;
    out[i].degraded = tasks[i].degraded;
    out[i].retries = tasks[i].retries;
    out[i].latency_ms = tasks[i].finish_ms - tasks[i].submit_ms;
    out[i].span_id = tasks[i].span.id();
  }
  return out;
}

}  // namespace eugene::sched
