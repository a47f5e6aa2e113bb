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
#include "sched/engine.hpp"

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
/// confidence) plus the features the next stage needs, or how the dispatch
/// ended without them.
enum class Report : std::uint8_t {
  kDone,       ///< the stage ran; label, confidence and features are set
  kCancelled,  ///< skipped cooperatively: token cancelled, or the propagated
               ///< deadline had already passed
  kRejected,   ///< the stage threw InvalidArgument: the input cannot run; the
               ///< worker lives
  kSick,       ///< recoverable stage error on the sick worker; the worker lives
  kCrashed,    ///< the stage threw; the worker thread exits, like a worker
               ///< process dying
};

struct WorkerResult {
  std::size_t worker = 0;
  std::uint64_t seq = 0;
  Report report = Report::kDone;
  std::string error;   ///< what() of the failure, for the failure reports
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

/// The pool's side of one task: the features its next stage reads and the
/// dispatches of that stage still out. Its progress lives in the engine.
struct TaskDispatch {
  Tensor features;
  std::vector<InFlightDispatch> inflight;  ///< current-stage dispatches (≤ 2)
  bool hedged = false;  ///< the current stage has had its backup dispatch
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

std::vector<TaskResult> run_live(const nn::StagedModel& model, std::size_t workers,
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

  GpUtilityEstimator estimator(curves);
  GreedyUtilityPolicy policy(estimator, config.lookahead);
  Engine engine(policy, inputs.size(), num_stages, config.max_retries,
                config.early_exit_confidence, config.trace);
  WallClock clock;
  const double submit_ms = clock.now_ms();
  const double deadline_ms = submit_ms + config.deadline_ms;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    engine.add(0, submit_ms, deadline_ms, num_stages);

  // Lifecycle gate (DESIGN.md §13): checked before any worker thread starts.
  // An admitted batch holds `inputs.size()` in-flight units for the whole
  // call, so begin_drain() waits for it.
  if (!engine.admit(config.lifecycle, submit_ms)) {
    if (config.metrics != nullptr)
      config.metrics->counter("sched.live.drain.rejections").inc(inputs.size());
    return engine.take_results();
  }

  std::vector<Channel<Job>> job_channels(workers);
  Channel<WorkerResult> results;

  // Worker body: block on the job channel, run one stage of the shared
  // model, report (stage, label, confidence) back. A throwing stage — real
  // bug or armed failpoint — becomes a crash report and thread exit,
  // mirroring a worker process dying; the supervisor handles the rest. A
  // rejected input is the input's fault, not the worker's: it reports and
  // keeps serving.
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
        try {
          EUGENE_FAILPOINT("live.worker.sick");
        } catch (const FailpointError& e) {
          res.report = Report::kSick;
          res.error = e.what();
          results.send(std::move(res));
          continue;  // sick, not dead: keep draining the job channel
        }
      }
      // Cooperative cancellation + propagated deadline: never start a stage
      // whose result is unwanted (hedge race already decided) or could not
      // arrive in time (deadline passed). Stages cannot be interrupted
      // mid-kernel, so this pre-stage check is the cancellation point.
      if (job->token.should_stop(clock.now_ms())) {
        res.report = Report::kCancelled;
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
        res.report = classify_stage_error(e) == StageFailure::kRejected
                         ? Report::kRejected
                         : Report::kCrashed;
        res.error = e.what();
      }
      const bool crashed = res.report == Report::kCrashed;
      results.send(std::move(res));
      if (crashed) return;  // the "process" is gone; supervisor may respawn
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);

  Rng backoff_rng(0xbacc0ff);
  LiveStats local_stats;
  std::vector<TaskDispatch> tasks(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    tasks[i].features = inputs[i];
    engine.enqueue(i);
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

  std::vector<WorkerSlot> slots(workers);
  std::size_t respawns_left = config.max_respawns;

  // The stage a task's next (or in-flight) dispatch runs.
  auto stage_of = [&](std::size_t task) {
    return static_cast<std::uint32_t>(engine.result(task).stages_run);
  };

  // Removes the (worker, seq) dispatch from the task's in-flight set;
  // returns it if it was still there (i.e. the race was not yet decided).
  auto take_inflight = [&](TaskDispatch& t, std::size_t w,
                           std::uint64_t seq) -> std::optional<InFlightDispatch> {
    const auto it =
        std::find_if(t.inflight.begin(), t.inflight.end(),
                     [&](const auto& d) { return d.worker == w && d.seq == seq; });
    if (it == t.inflight.end()) return std::nullopt;
    const InFlightDispatch d = *it;
    t.inflight.erase(it);
    return d;
  };

  // Worker `w`'s in-flight dispatch failed (crash, silence, sick-worker
  // error, or rejected input). Frees the slot; once no hedge twin of the
  // dispatch is still racing, the engine's failure rule decides: re-queue
  // the task after a jittered backoff, expire it, or degrade it. The caller
  // decides deadness and breaker bookkeeping.
  auto fail_dispatch = [&](std::size_t w, StageFailure failure) {
    WorkerSlot& slot = slots[w];
    if (!slot.busy) return;
    slot.busy = false;
    TaskDispatch& t = tasks[slot.task];
    if (!take_inflight(t, w, slot.seq).has_value()) return;  // a decided race's loser
    if (!t.inflight.empty()) return;  // the hedge twin is still racing
    t.hedged = false;  // the re-dispatch may hedge again
    const double backoff =
        backoff_delay_ms(config.retry, engine.result(slot.task).retries + 1, backoff_rng);
    engine.fail(slot.task, clock.now_ms(), failure, backoff);
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
    TaskDispatch& t = tasks[task];
    Job job;
    job.stage = stage_of(task);
    job.seq = next_seq++;
    job.features = t.features;
    // Deadline propagation: the worker sees the task's absolute deadline and
    // the scheduler keeps a cancel handle for the hedge race.
    job.token = CancellationToken(deadline_ms);
    WorkerSlot& slot = slots[w];
    slot.busy = true;
    slot.seq = job.seq;
    slot.task = task;
    slot.dispatched_ms = clock.now_ms();
    t.inflight.push_back({w, job.seq, hedge, job.token});
    engine.span(task).event(hedge ? TraceEventKind::kHedge : TraceEventKind::kDispatch,
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
      engine.expire_overdue(now);
      const std::optional<std::size_t> task = engine.next(now);
      if (!task.has_value()) return;
      engine.hold(*task);
      dispatch_to(ready.front(), *task, /*hedge=*/false);
    }
  };

  // Dispatch-to-result latencies feeding the hedge threshold, in a lock-free
  // log-bucketed histogram: record is two relaxed atomic adds, and
  // quantile() walks 98 fixed buckets with nearest-rank (ceil) semantics
  // (BM_HedgeQuantileLegacyWindow in bench_micro.cpp compares it with a
  // copied sample window).
  telemetry::LatencyHistogram lat_hist;
  auto note_latency = [&](double ms, std::size_t stage) {
    lat_hist.record(ms);
    if (stage < stage_hists.size()) stage_hists[stage]->record(ms);
  };
  // Computed once per wake and shared by the hedge sweep and the hedge-aware
  // wake, so the two never disagree. nullopt = hedging off or warming up.
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
      TaskDispatch& t = tasks[task];
      if (engine.finished(task) || t.hedged || t.inflight.size() != 1) continue;
      if (t.inflight.front().worker != w || t.inflight.front().seq != slot.seq)
        continue;
      const auto ready = ready_workers_ranked(now);
      if (ready.empty()) continue;  // no spare healthy worker: no hedge
      t.hedged = true;
      ++local_stats.hedges_issued;
      dispatch_to(ready.front(), task, /*hedge=*/true);
      EUGENE_LOG(Debug) << "live: hedging task " << task << " stage "
                        << stage_of(task) << " (worker " << w << " out "
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
  while (engine.unfinished() > 0) {
    engine.expire_overdue(clock.now_ms());
    if (engine.unfinished() == 0) break;

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
          engine.span(slots[w].task)
              .event(TraceEventKind::kStageError, now, stage_of(slots[w].task),
                     static_cast<std::uint32_t>(w));
          fail_dispatch(w, StageFailure::kFault);
        }
      }
    }

    // Degrade-never-fail: with every worker dead, remaining tasks answer
    // with what they have instead of waiting forever.
    bool any_alive = false;
    for (const WorkerSlot& s : slots) any_alive |= !s.dead;
    if (!any_alive) {
      const double now = clock.now_ms();
      for (std::size_t i = 0; i < tasks.size(); ++i)
        if (!engine.finished(i)) engine.degrade(i, now);
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
    // immediately.
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
          if (engine.finished(s.task) || tasks[s.task].hedged) continue;
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
    const std::size_t task = slot.task;
    TaskDispatch& t = tasks[task];

    if (res->report == Report::kCancelled) {
      // The worker honored a cancellation (hedge race decided against it,
      // or the propagated deadline had passed). No breaker penalty: the
      // worker did nothing wrong. Only a dispatch still in the in-flight
      // set counts as newly cancelled — a decided hedge race already
      // counted its loser when the winner was processed. With no dispatch
      // of the stage left, the task goes back to the runnable set, where
      // the latency daemon expires it if its deadline has passed.
      slot.busy = false;
      if (take_inflight(t, res->worker, res->seq).has_value()) {
        ++local_stats.cancelled;
        engine.span(task).event(TraceEventKind::kCancel, now, stage_of(task),
                                static_cast<std::uint32_t>(res->worker));
        if (t.inflight.empty()) engine.enqueue(task);
      }
      dispatch();
      continue;
    }

    if (res->report != Report::kDone) {
      // A rejected input is not the worker's fault: no breaker failure and
      // no fault count. A sick-worker error leaves the worker alive; a
      // crash means the worker thread has exited.
      if (res->report == Report::kRejected) {
        EUGENE_LOG(Warn) << "live: task " << task << " rejected by stage "
                         << stage_of(task) << ": " << res->error;
      } else {
        breakers[res->worker].record_failure(now);
      }
      if (res->report == Report::kSick) {
        ++local_stats.worker_errors;
        EUGENE_LOG(Warn) << "live: worker " << res->worker
                         << " failed a stage of task " << task
                         << " (recoverable): " << res->error;
      } else if (res->report == Report::kCrashed) {
        ++local_stats.worker_crashes;
        EUGENE_LOG(Warn) << "live: worker " << res->worker
                         << " crashed running task " << task << ": " << res->error;
        slot.dead = true;
      }
      engine.span(task).event(TraceEventKind::kStageError, now, stage_of(task),
                              static_cast<std::uint32_t>(res->worker));
      fail_dispatch(res->worker, res->report == Report::kRejected
                                     ? StageFailure::kRejected
                                     : StageFailure::kFault);
      if (res->report == Report::kCrashed) maybe_respawn(res->worker);
      dispatch();
      continue;
    }

    // Successful stage execution: good for the worker's health either way,
    // and a fresh latency observation for the hedge threshold.
    breakers[res->worker].record_success(res->stage_ms, now);
    note_latency(now - slot.dispatched_ms, res->stage);
    slot.busy = false;
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
      engine.span(task).event(TraceEventKind::kCancel, now, stage_of(task),
                              static_cast<std::uint32_t>(d.worker));
    }
    t.inflight.clear();
    t.hedged = false;

    EUGENE_CHECK_EQ(res->stage, stage_of(task))
        << "out-of-order stage report for task " << task;
    if (now < deadline_ms) {
      engine.complete(task, res->label, res->confidence, now,
                      static_cast<std::uint32_t>(res->worker));
      t.features = std::move(res->features);
    } else {
      // The daemon's stage-granularity kill: discard the late result.
      engine.expire(task, now);
    }
    dispatch();
  }

  for (auto& ch : job_channels) ch.close();
  for (auto& th : threads) th.join();
  results.close();

  std::vector<TaskResult> out = engine.take_results();
  for (const TaskResult& r : out) {
    local_stats.retries += r.retries;
    local_stats.degraded += r.degraded ? 1 : 0;
    local_stats.expired += r.expired ? 1 : 0;
  }
  for (const auto& b : breakers) local_stats.breaker_trips += b.trips();
  if (stats != nullptr) *stats = local_stats;

  if (config.metrics != nullptr) {
    // inc(0) still registers the instrument, so metrics_text() lists every
    // counter even on an uneventful run (the parse test relies on that).
    telemetry::MetricsRegistry& m = *config.metrics;
    m.counter("sched.live.tasks").inc(out.size());
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
  return out;
}

}  // namespace eugene::sched
