// Chaos suite (DESIGN.md §8 "Failure model"): arms failpoints at every seam
// — worker crash mid-stage, sick workers, slow workers, overload bursts —
// and asserts the robustness contract: every submitted request receives a
// well-formed response (complete, expired, or degraded), no exception
// escapes run_live/process_batch, and the fault counters reconcile with the
// number of injected faults.
//
// Each TEST runs in its own ctest process (gtest_discover_tests), so armed
// failpoints cannot leak across tests; FailpointGuard adds belt-and-braces
// isolation within a process.
#include <gtest/gtest.h>

#include <algorithm>

#include "calib/evaluation.hpp"
#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/retry.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/staged_model.hpp"
#include "sched/live.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "serving/usage.hpp"

namespace eugene {
namespace {

/// Disarms every failpoint on entry and exit of a test body.
struct FailpointGuard {
  FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
  ~FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
};

void poke(const char* name) { EUGENE_FAILPOINT(name); }

nn::StagedResNetConfig tiny_model_config() {
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {3, 4};
  cfg.head_hidden = 8;
  return cfg;
}

constexpr std::size_t kStages = 2;  // tiny_model_config has two stages

/// Fabricated per-stage confidences: enough structure for curve fitting
/// without training a model.
calib::StagedEvaluation fake_eval() {
  calib::StagedEvaluation eval;
  eval.records.resize(kStages);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double base = rng.uniform(0.1, 0.9);
    for (std::size_t s = 0; s < kStages; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(
          std::min(1.0, base + 0.2 * (static_cast<double>(s) + rng.uniform(0.0, 0.1))));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

gp::ConfidenceCurveModel make_curves() {
  gp::ConfidenceCurveModel curves;
  curves.fit(fake_eval());
  return curves;
}

std::vector<tensor::Tensor> make_inputs(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    inputs.push_back(tensor::Tensor::randn({2, 8, 8}, rng));
  return inputs;
}

nn::StagedModel make_model() { return nn::build_staged_resnet(tiny_model_config()); }

/// A registered + curve-fitted model entry for server tests.
struct ServerHarness {
  serving::ModelRegistry registry;
  std::size_t handle;

  ServerHarness() : handle(registry.add("tiny", nn::build_staged_resnet(tiny_model_config()))) {
    serving::ModelEntry& e = registry.entry(handle);
    e.curves.fit(fake_eval());
    e.costs.stage_ms = {1.0, 1.0};
  }

  serving::ModelEntry& entry() { return registry.entry(handle); }
};

/// The chaos suite's core invariant: a response is well-formed iff it is
/// complete, expired, or degraded — and internally consistent.
void expect_well_formed(const sched::TaskResult& r, std::size_t num_stages) {
  EXPECT_LE(r.stages_run, num_stages);
  EXPECT_FALSE(r.expired && r.degraded);
  if (!r.expired && !r.degraded) {
    EXPECT_GE(r.stages_run, 1u);
  }
  if (r.stages_run == 0) {
    EXPECT_EQ(r.confidence, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Failpoint framework
// ---------------------------------------------------------------------------

TEST(Fault, FailpointDisarmedIsNoop) {
  FailpointGuard guard;
  EXPECT_NO_THROW(poke("test.never.armed"));
  EXPECT_EQ(FailpointRegistry::instance().fires("test.never.armed"), 0u);
}

TEST(Fault, FailpointArmedThrowsAndCountsFires) {
  FailpointGuard guard;
  FailpointRegistry::instance().arm("test.crash", FailpointSpec{});
  EXPECT_THROW(poke("test.crash"), FailpointError);
  EXPECT_THROW(poke("test.crash"), FailpointError);
  EXPECT_EQ(FailpointRegistry::instance().fires("test.crash"), 2u);
  // Other names stay dormant while one is armed.
  EXPECT_NO_THROW(poke("test.other"));
  FailpointRegistry::instance().disarm("test.crash");
  EXPECT_NO_THROW(poke("test.crash"));
}

TEST(Fault, FailpointFireBudgetAutoDisarms) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 2;
  FailpointRegistry::instance().arm("test.budget", spec);
  EXPECT_THROW(poke("test.budget"), FailpointError);
  EXPECT_THROW(poke("test.budget"), FailpointError);
  EXPECT_NO_THROW(poke("test.budget"));  // budget spent: dormant
  EXPECT_EQ(FailpointRegistry::instance().fires("test.budget"), 2u);
}

TEST(Fault, FailpointSeededDrawsAreDeterministic) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.probability = 0.5;
  spec.seed = 7;
  auto draw_pattern = [&] {
    FailpointRegistry::instance().arm("test.prob", spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i)
      pattern.push_back(FailpointRegistry::instance().should_fire("test.prob"));
    return pattern;
  };
  const auto first = draw_pattern();
  const auto second = draw_pattern();  // re-arm resets the seeded stream
  EXPECT_EQ(first, second);
  const std::size_t fired = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 16u);  // p=0.5 over 64 draws: far from all-or-nothing
  EXPECT_LT(fired, 48u);
}

TEST(Fault, FailpointDelayKindStalls) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.kind = FailpointKind::kDelay;
  spec.delay_ms = 30.0;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("test.stall", spec);
  Stopwatch watch;
  EXPECT_NO_THROW(poke("test.stall"));
  EXPECT_GE(watch.elapsed_ms(), 25.0);
}

TEST(Fault, FailpointSpecStringParses) {
  FailpointGuard guard;
  auto& reg = FailpointRegistry::instance();
  EXPECT_EQ(reg.arm_from_string("a.b=error:p=0.5:count=3,c=delay:ms=2.5:seed=9"), 2u);
  EXPECT_EQ(reg.armed(), 2u);
  EXPECT_THROW(reg.arm_from_string("nokind"), InvalidArgument);
  EXPECT_THROW(reg.arm_from_string("x=banana"), InvalidArgument);
  EXPECT_THROW(reg.arm_from_string("x=error:q=1"), InvalidArgument);
  EXPECT_THROW(reg.arm_from_string("x=error:p=oops"), InvalidArgument);
}

TEST(Fault, RetryBackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 8.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 1, rng), 1.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 2, rng), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 3, rng), 4.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 4, rng), 8.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 10, rng), 8.0);  // capped
  policy.jitter = 0.5;
  for (int i = 0; i < 32; ++i) {
    const double d = backoff_delay_ms(policy, 3, rng);
    EXPECT_GE(d, 2.0);
    EXPECT_LE(d, 6.0);  // 4 ms ± 50 %
  }
}

// ---------------------------------------------------------------------------
// Live scheduler worker supervision
// ---------------------------------------------------------------------------

TEST(Fault, LiveWorkerCrashIsRetriedOnHealthyWorker) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("live.worker.crash", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(6);
  sched::LiveConfig cfg;
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  std::size_t total_retries = 0;
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
    total_retries += r.retries;
  }
  EXPECT_EQ(stats.worker_crashes, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(total_retries, 1u);
  // Counter reconciliation: one injected fault, one observed crash.
  EXPECT_EQ(FailpointRegistry::instance().fires("live.worker.crash"),
            stats.worker_crashes);
}

TEST(Fault, LiveWorkerCrashWithRespawnCompletesAll) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 2;
  FailpointRegistry::instance().arm("live.worker.crash", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(8);
  sched::LiveConfig cfg;
  cfg.max_retries = 3;
  cfg.max_respawns = 2;
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
  }
  EXPECT_EQ(stats.worker_crashes, 2u);
  EXPECT_EQ(stats.respawns, 2u);
  EXPECT_EQ(FailpointRegistry::instance().fires("live.worker.crash"), 2u);
}

TEST(Fault, LiveSlowWorkerIsAbandonedAndTaskRecovers) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.kind = FailpointKind::kDelay;
  spec.delay_ms = 1000.0;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("live.worker.slow", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(4);
  sched::LiveConfig cfg;
  cfg.worker_timeout_ms = 150.0;  // far above a healthy stage, far below the stall
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
  }
  EXPECT_EQ(stats.worker_timeouts, 1u);
  EXPECT_EQ(stats.retries, 1u);
}

TEST(Fault, LivePersistentCrashesDegradeInsteadOfHanging) {
  FailpointGuard guard;
  FailpointRegistry::instance().arm("live.worker.crash", FailpointSpec{});  // p=1, ∞

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(5);
  sched::LiveConfig cfg;
  cfg.max_retries = 1;
  cfg.max_respawns = 1;
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  // The robustness contract under total loss: no hang, no escaping
  // exception, every task answered (degraded, with zero stages).
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.stages_run, 0u);
  }
  EXPECT_EQ(stats.degraded, inputs.size());
  EXPECT_GE(stats.worker_crashes, 2u);  // both initial workers died
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(FailpointRegistry::instance().fires("live.worker.crash"),
            stats.worker_crashes);
}

TEST(Fault, LiveExpiredTasksStayExpiredUnderCrashes) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.probability = 0.5;
  spec.seed = 13;
  FailpointRegistry::instance().arm("live.worker.crash", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(8);
  sched::LiveConfig cfg;
  cfg.deadline_ms = 40.0;
  cfg.max_retries = 2;
  cfg.max_respawns = 8;
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) expect_well_formed(r, kStages);
  EXPECT_EQ(stats.expired,
            static_cast<std::size_t>(std::count_if(
                results.begin(), results.end(),
                [](const sched::TaskResult& r) { return r.expired; })));
  EXPECT_EQ(FailpointRegistry::instance().fires("live.worker.crash"),
            stats.worker_crashes);
}

TEST(Fault, LiveRejectsInvalidInputsUpFront) {
  const auto curves = make_curves();
  const nn::StagedModel model = make_model();
  const auto inputs = make_inputs(2);
  sched::LiveConfig cfg;

  EXPECT_THROW(sched::run_live(model, 0, curves, inputs, cfg), InvalidArgument);

  const std::vector<tensor::Tensor> empty_batch;
  EXPECT_THROW(sched::run_live(model, 1, curves, empty_batch, cfg), InvalidArgument);

  Rng rng(9);
  std::vector<tensor::Tensor> mismatched = make_inputs(2);
  mismatched.push_back(tensor::Tensor::randn({2, 4, 4}, rng));
  EXPECT_THROW(sched::run_live(model, 1, curves, mismatched, cfg), InvalidArgument);

  const nn::StagedModel no_stages(4);
  EXPECT_THROW(sched::run_live(no_stages, 1, curves, inputs, cfg), InvalidArgument);

  sched::LiveConfig bad_deadline;
  bad_deadline.deadline_ms = 0.0;
  EXPECT_THROW(sched::run_live(model, 1, curves, inputs, bad_deadline),
               InvalidArgument);

  // A bad breaker config must throw before any worker thread exists: a throw
  // with joinable threads alive would terminate the process instead.
  sched::LiveConfig bad_health;
  bad_health.health.ewma_alpha = 0.0;
  EXPECT_THROW(sched::run_live(model, 1, curves, inputs, bad_health),
               InvalidArgument);

  // Jitter outside [0, 1] is rejected up front, not at the first backoff
  // deep inside the scheduler loop.
  sched::LiveConfig bad_jitter;
  bad_jitter.retry.jitter = 1.5;
  EXPECT_THROW(sched::run_live(model, 1, curves, inputs, bad_jitter),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Overload control: breakers, hedging, cancellation (DESIGN.md §11)
// ---------------------------------------------------------------------------

TEST(Fault, LiveSickReplicaBreakerOpensAndRoutesAround) {
  FailpointGuard guard;
  // Worker 0 is the designated sick worker: every stage it runs fails
  // recoverably (the worker lives, unlike a crash).
  FailpointRegistry::instance().arm("live.worker.sick", FailpointSpec{});  // p=1, ∞

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(8);
  sched::LiveConfig cfg;
  cfg.max_retries = 3;
  cfg.retry.base_delay_ms = 0.1;
  cfg.health.min_samples = 2;
  cfg.health.ewma_alpha = 0.5;
  cfg.health.error_threshold = 0.5;
  cfg.health.open_cooldown_ms = 60000.0;  // stays open for the whole test
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    // The healthy worker carries every task to completion.
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
  }
  EXPECT_EQ(stats.worker_crashes, 0u);  // sick ≠ dead: no thread ever exited
  EXPECT_EQ(stats.respawns, 0u);
  // Two failures at alpha=0.5 breach the 0.5 error threshold: exactly one
  // trip, and the breaker keeps later dispatch off the sick worker.
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.worker_errors, 2u);
  EXPECT_GE(stats.breaker_skips, 1u);
  // Counter reconciliation: every injected sick-stage fault was observed.
  EXPECT_EQ(FailpointRegistry::instance().fires("live.worker.sick"),
            stats.worker_errors);
  // Routing around the open breaker spared the retry budget: only the
  // pre-trip failures charged retries.
  EXPECT_EQ(stats.retries, stats.worker_errors);
}

TEST(Fault, LiveBreakerTripSeamForcesOpenWithoutRealErrors) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("health.breaker.trip", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(6);
  sched::LiveConfig cfg;
  cfg.retry.base_delay_ms = 0.1;
  cfg.health.open_cooldown_ms = 60000.0;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
  }
  // The forced trip opened one breaker with zero real failures, and the
  // other worker finished the batch.
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.worker_errors, 0u);
  EXPECT_EQ(stats.worker_crashes, 0u);
  EXPECT_EQ(FailpointRegistry::instance().fires("health.breaker.trip"), 1u);
}

TEST(Fault, LiveHedgedDispatchRescuesStraggler) {
  FailpointGuard guard;
  // Worker 0 straggles: every stage it starts stalls 200 ms.
  FailpointSpec spec;
  spec.kind = FailpointKind::kDelay;
  spec.delay_ms = 200.0;
  FailpointRegistry::instance().arm("live.worker.sick", spec);

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(10);
  sched::LiveConfig cfg;
  cfg.hedging = true;
  cfg.hedge_quantile = 0.5;
  cfg.hedge_min_ms = 1.0;
  cfg.hedge_min_samples = 4;
  cfg.retry.base_delay_ms = 0.1;
  cfg.health.enabled = false;  // isolate hedging from breaker routing
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    // No deadline and a healthy second worker: hedging must rescue every
    // straggling dispatch; nothing degrades and nothing expires.
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
    EXPECT_EQ(r.retries, 0u);  // a hedge is not a retry
  }
  EXPECT_GE(stats.hedges_issued, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
  EXPECT_LE(stats.hedges_won, stats.hedges_issued);
  EXPECT_EQ(stats.worker_crashes, 0u);

  // The ops ledger carries the hedge counters (v2 journal frame fields).
  ServerHarness harness;
  serving::UsageMeter meter(harness.entry().costs, {"default"});
  serving::OpsUsage ops;
  ops.hedges_issued = stats.hedges_issued;
  ops.hedges_won = stats.hedges_won;
  ops.breaker_trips = stats.breaker_trips;
  meter.record_ops(ops);
  EXPECT_EQ(meter.ops().hedges_issued, stats.hedges_issued);
  EXPECT_EQ(meter.ops().hedges_won, stats.hedges_won);
}

TEST(Fault, LiveHedgeRaceLoserIsCancelledCooperatively) {
  FailpointGuard guard;
  FailpointSpec stall;
  stall.kind = FailpointKind::kDelay;
  stall.delay_ms = 150.0;
  FailpointRegistry::instance().arm("live.worker.sick", stall);
  // Chaos seam: every hedge force-cancels its primary, so the backup must
  // win every race and the loser-cancellation path runs deterministically.
  FailpointRegistry::instance().arm("hedge.lose.race", FailpointSpec{});

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(8);
  sched::LiveConfig cfg;
  cfg.hedging = true;
  cfg.hedge_quantile = 0.5;
  cfg.hedge_min_ms = 1.0;
  cfg.hedge_min_samples = 4;
  cfg.retry.base_delay_ms = 0.1;
  cfg.health.enabled = false;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 2, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
  }
  EXPECT_GE(stats.hedges_issued, 1u);
  // With the primary force-cancelled, the backup wins every race it enters.
  EXPECT_EQ(stats.hedges_won, stats.hedges_issued);
  EXPECT_EQ(FailpointRegistry::instance().fires("hedge.lose.race"),
            stats.hedges_issued);
  // The losers honored the cancel at their next safe point (the pre-stage
  // token check after the injected stall).
  EXPECT_GE(stats.cancelled, 1u);
}

TEST(Fault, ServerForcedBrownoutShedsAndRecovers) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 2;
  FailpointRegistry::instance().arm("admit.brownout.force", spec);

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.admission_capacity = 8;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(8)) requests.push_back({input, 0});

  // Batch 1: the seam escalates to level 1 → capacity shrinks to 6, two
  // requests brown out with well-formed degraded responses.
  auto responses = server.process_batch(requests);
  std::size_t browned = 0;
  for (const auto& r : responses) {
    if (r.browned_out) {
      ++browned;
      EXPECT_TRUE(r.degraded);
      EXPECT_GE(r.stages_run, 1u);   // answered, not rejected
      EXPECT_GT(r.confidence, 0.0);
    }
  }
  EXPECT_EQ(browned, 2u);
  // Recovery hysteresis: the measured queue delay is tiny against the 50 ms
  // setpoint, so the controller steps back down after the batch.
  EXPECT_EQ(server.brownout_level(), 0u);

  // Batch 2: second forced escalation behaves identically.
  responses = server.process_batch(requests);
  browned = 0;
  for (const auto& r : responses) browned += r.browned_out ? 1 : 0;
  EXPECT_EQ(browned, 2u);

  // Batch 3: the seam's budget is spent; full service is restored.
  responses = server.process_batch(requests);
  for (const auto& r : responses) {
    EXPECT_FALSE(r.browned_out);
    EXPECT_FALSE(r.degraded);
  }
  EXPECT_EQ(FailpointRegistry::instance().fires("admit.brownout.force"), 2u);
}

TEST(Fault, ServerBrownoutEscalatesProgressivelyOnMeasuredDelay) {
  FailpointGuard guard;
  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.admission_capacity = 8;
  // A zero setpoint makes every measured queue delay an overload signal, so
  // each batch escalates one level: a deterministic stand-in for a server
  // that genuinely cannot keep up.
  cfg.brownout.setpoint_ms = 0.0;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(8)) requests.push_back({input, 0});

  serving::UsageMeter meter(harness.entry().costs, {"default"});
  std::vector<std::size_t> browned_per_batch;
  std::size_t total_browned = 0;
  for (int batch = 0; batch < 4; ++batch) {
    const auto responses = server.process_batch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    std::size_t browned = 0;
    for (const auto& r : responses) {
      if (r.browned_out) {
        ++browned;
        EXPECT_TRUE(r.degraded);
        EXPECT_GE(r.stages_run, 1u);
      } else {
        EXPECT_GE(r.stages_run, 1u);
      }
    }
    browned_per_batch.push_back(browned);
    total_browned += browned;
    meter.record(requests, responses, kStages);
  }
  // Levels during the batches ran 0 → 1 → 2 → 3 (the max), so the shed
  // count grows progressively: 0, 2, 4, then 6 of 8.
  const std::vector<std::size_t> expected = {0u, 2u, 4u, 6u};
  EXPECT_EQ(browned_per_batch, expected);
  EXPECT_EQ(server.brownout_level(), 3u);  // pinned at max_level
  // The per-class ledger separates brown-out sheds from ordinary sheds.
  const auto usage = meter.usage();
  EXPECT_EQ(usage[0].brownout_sheds, total_browned);
  EXPECT_EQ(usage[0].shed, total_browned);  // no other degradations occurred
}

// ---------------------------------------------------------------------------
// Serving tier: overload shedding and stage-failure degradation
// ---------------------------------------------------------------------------

TEST(Fault, ServerOverloadBurstShedsToEarliestExit) {
  FailpointGuard guard;
  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.admission_capacity = 2;
  serving::InferenceServer server(harness.entry(), cfg);

  std::vector<serving::InferenceRequest> requests;
  const auto inputs = make_inputs(5);
  for (const auto& input : inputs) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t shed = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    if (r.degraded) {
      ++shed;
      // Degraded-but-valid: answered from the earliest exit, not rejected.
      EXPECT_GE(r.stages_run, 1u);
      EXPECT_LE(r.stages_run, cfg.shed_max_stages);
      EXPECT_GT(r.confidence, 0.0);
    } else {
      EXPECT_FALSE(r.expired);
      EXPECT_GE(r.stages_run, 1u);
    }
  }
  EXPECT_EQ(shed, requests.size() - cfg.admission_capacity);

  // The per-class ledger reconciles with the shed count.
  serving::UsageMeter meter(harness.entry().costs, {"default"});
  meter.record(requests, responses, kStages);
  const auto usage = meter.usage();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].shed, shed);
  EXPECT_EQ(usage[0].retries, 0u);
  EXPECT_EQ(usage[0].requests, requests.size());
}

TEST(Fault, ServerStageCrashIsRetriedTransparently) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("serving.stage.crash", spec);

  ServerHarness harness;
  serving::InferenceServer server(harness.entry(), serving::ServerConfig{});
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(4)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t total_retries = 0;
  for (const auto& r : responses) {
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(r.expired);
    EXPECT_GE(r.stages_run, 1u);
    total_retries += r.retries;
  }
  EXPECT_EQ(total_retries, 1u);  // the one injected crash cost one retry
}

TEST(Fault, ServerPersistentStageCrashDegradesEveryRequest) {
  FailpointGuard guard;
  FailpointRegistry::instance().arm("serving.stage.crash", FailpointSpec{});  // p=1, ∞

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.max_stage_retries = 2;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(3)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);  // must not throw

  ASSERT_EQ(responses.size(), requests.size());
  for (const auto& r : responses) {
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.stages_run, 0u);
    EXPECT_EQ(r.retries, cfg.max_stage_retries + 1);
  }
  // Reconcile: every injected fault is accounted for as a retry.
  std::size_t total_retries = 0;
  for (const auto& r : responses) total_retries += r.retries;
  EXPECT_EQ(FailpointRegistry::instance().fires("serving.stage.crash"),
            total_retries);
}

TEST(Fault, ServerShedPlusCrashCountersReconcile) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 2;
  FailpointRegistry::instance().arm("serving.stage.crash", spec);

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.admission_capacity = 2;
  cfg.max_stage_retries = 2;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(5)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t shed = 0;
  std::size_t total_retries = 0;
  for (const auto& r : responses) {
    EXPECT_FALSE(r.expired);
    total_retries += r.retries;
    shed += r.degraded ? 1 : 0;
  }
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(total_retries, 2u);

  serving::UsageMeter meter(harness.entry().costs, {"default"});
  meter.record(requests, responses, kStages);
  const auto usage = meter.usage();
  EXPECT_EQ(usage[0].shed, shed);
  EXPECT_EQ(usage[0].retries, total_retries);
  EXPECT_EQ(usage[0].retries,
            FailpointRegistry::instance().fires("serving.stage.crash"));
}

TEST(Fault, ServerRejectsInvalidInputsUpFront) {
  ServerHarness harness;
  serving::InferenceServer server(harness.entry(), serving::ServerConfig{});

  EXPECT_THROW(server.process_batch({}), InvalidArgument);

  std::vector<serving::InferenceRequest> unknown_class;
  unknown_class.push_back({make_inputs(1).front(), 7});
  EXPECT_THROW(server.process_batch(unknown_class), InvalidArgument);

  std::vector<serving::InferenceRequest> empty_tensor;
  empty_tensor.push_back({tensor::Tensor{}, 0});
  EXPECT_THROW(server.process_batch(empty_tensor), InvalidArgument);

  serving::ServerConfig bad;
  bad.shed_max_stages = 0;
  EXPECT_THROW(serving::InferenceServer(harness.entry(), bad), InvalidArgument);
}

TEST(Fault, RejectedInputDegradesAtOnce) {
  FailpointGuard guard;
  // An input the model cannot take makes the first stage throw
  // InvalidArgument. A stage is deterministic, so retrying can never
  // succeed: the request degrades at once, charging no retry, no worker
  // crash, and no breaker failure.
  Rng rng(21);
  const tensor::Tensor wrong = tensor::Tensor::randn({2, 4, 4}, rng);

  // Inline: one wrong-shaped request among good ones.
  ServerHarness harness;
  std::vector<serving::InferenceRequest> good;
  for (const auto& input : make_inputs(4)) good.push_back({input, 0});
  std::vector<serving::InferenceRequest> mixed = good;
  mixed.insert(mixed.begin() + 2, {wrong, 0});
  serving::InferenceServer reference(harness.entry(), serving::ServerConfig{});
  serving::InferenceServer server(harness.entry(), serving::ServerConfig{});
  const auto expected = reference.process_batch(good);
  const auto responses = server.process_batch(mixed);
  ASSERT_EQ(responses.size(), mixed.size());
  EXPECT_TRUE(responses[2].degraded);
  EXPECT_FALSE(responses[2].expired);
  EXPECT_EQ(responses[2].stages_run, 0u);
  EXPECT_EQ(responses[2].retries, 0u);
  for (std::size_t i = 0; i < good.size(); ++i) {
    const serving::InferenceResponse& r = responses[i < 2 ? i : i + 1];
    EXPECT_FALSE(r.degraded) << i;
    EXPECT_EQ(r.label, expected[i].label) << i;
    EXPECT_EQ(r.confidence, expected[i].confidence) << i;
    EXPECT_EQ(r.stages_run, expected[i].stages_run) << i;
    EXPECT_EQ(r.retries, 0u) << i;
  }

  // Worker pool: a batch of wrong-shaped inputs. The workers reject every
  // task and keep serving.
  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const std::vector<tensor::Tensor> inputs(4, wrong);
  sched::LiveStats stats;
  const auto results =
      sched::run_live(model, 2, curves, inputs, sched::LiveConfig{}, &stats);
  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) {
    expect_well_formed(r, kStages);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.stages_run, 0u);
    EXPECT_EQ(r.retries, 0u);
  }
  EXPECT_EQ(stats.worker_crashes, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded, inputs.size());
}

// ---------------------------------------------------------------------------
// Environment-armed chaos (CI's EUGENE_FAILPOINTS job)
// ---------------------------------------------------------------------------

TEST(FaultEnv, LiveSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI arms e.g. EUGENE_FAILPOINTS='live.worker.crash=error:p=0.05:seed=11';
  // without the variable this runs as a plain live-mode smoke test.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(10);
  sched::LiveConfig cfg;
  cfg.max_retries = 3;
  cfg.max_respawns = 4;
  cfg.worker_timeout_ms = 2000.0;
  cfg.retry.base_delay_ms = 0.1;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 3, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) expect_well_formed(r, kStages);
  if (armed == 0) {
    EXPECT_EQ(stats.worker_crashes + stats.worker_timeouts + stats.degraded, 0u);
  }
}

TEST(FaultEnv, LiveOverloadControlSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI's overload-chaos job arms the §11 seams, e.g.
  //   EUGENE_FAILPOINTS='live.worker.sick=error:p=0.4:seed=3,
  //                      health.breaker.trip=error:p=0.1:seed=5,
  //                      hedge.lose.race=error:p=0.5:seed=7'
  // Without the variable this is a hedging+breaker smoke test.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  const nn::StagedModel model = make_model();
  const auto curves = make_curves();
  const auto inputs = make_inputs(12);
  sched::LiveConfig cfg;
  cfg.max_retries = 4;
  cfg.max_respawns = 4;
  cfg.worker_timeout_ms = 2000.0;
  cfg.retry.base_delay_ms = 0.1;
  cfg.health.min_samples = 2;
  cfg.health.open_cooldown_ms = 20.0;  // breakers recover mid-run
  cfg.hedging = true;
  cfg.hedge_quantile = 0.9;
  cfg.hedge_min_samples = 4;
  sched::LiveStats stats;
  const auto results = sched::run_live(model, 3, curves, inputs, cfg, &stats);

  ASSERT_EQ(results.size(), inputs.size());
  for (const auto& r : results) expect_well_formed(r, kStages);
  // Every recoverable worker error traces back to a sick-seam fire; the
  // converse only holds for kind=error arming (a kind=delay fire makes a
  // straggler, not an error), so this stays an upper bound under env chaos.
  EXPECT_LE(stats.worker_errors,
            FailpointRegistry::instance().fires("live.worker.sick"));
  EXPECT_LE(stats.hedges_won, stats.hedges_issued);
  if (armed == 0) {
    EXPECT_EQ(stats.worker_errors + stats.breaker_trips + stats.degraded, 0u);
  }
}

TEST(FaultEnv, ServerSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI arms e.g. EUGENE_FAILPOINTS='admit.brownout.force=error:p=0.5:seed=2,
  // serving.stage.crash=error:p=0.05:seed=4'; unarmed it is a smoke test.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.admission_capacity = 6;
  cfg.max_stage_retries = 3;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(8)) requests.push_back({input, 0});

  for (int batch = 0; batch < 3; ++batch) {
    const auto responses = server.process_batch(requests);  // must not throw
    ASSERT_EQ(responses.size(), requests.size());
    for (const auto& r : responses) {
      EXPECT_LE(r.stages_run, kStages);
      if (r.browned_out) {
        EXPECT_TRUE(r.degraded);
      }
      if (!r.expired && !r.degraded) {
        EXPECT_GE(r.stages_run, 1u);
      }
    }
  }
  if (armed == 0) {
    EXPECT_EQ(server.brownout_level(), 0u);
  }
}

}  // namespace
}  // namespace eugene
