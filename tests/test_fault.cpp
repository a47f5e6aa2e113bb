// Chaos suite (DESIGN.md §8 "Failure model"): arms failpoints at every seam
// — a stage crash on any worker of the pool, inputs the model rejects — and
// asserts the robustness contract: every submitted request receives a well-formed response
// (complete, expired, or degraded), no exception escapes process_batch, and
// the fault counters reconcile with the number of injected faults.
//
// Each TEST runs in its own ctest process (gtest_discover_tests), so armed
// failpoints cannot leak across tests; FailpointGuard adds belt-and-braces
// isolation within a process.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "calib/evaluation.hpp"
#include "common/clock.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/staged_model.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "serving/usage.hpp"
#include "serving_fixtures.hpp"

namespace eugene {
namespace {

void poke(const char* name) { EUGENE_FAILPOINT(name); }

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
  // count and seed are decimal integers; a negative count means no budget.
  EXPECT_EQ(reg.arm_from_string("three=error:count=3,free=error:count=-5,"
                                "s=error:seed=18446744073709551615"),
            3u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reg.should_fire("three"), i < 3) << i;
    EXPECT_TRUE(reg.should_fire("free")) << i;
  }
  for (const char* bad :
       {"x=error:count=2.7", "x=error:count=1e30", "x=error:count=9223372036854775808",
        "x=error:count=+3", "x=error:count=", "x=error:seed=-5", "x=error:seed=1e300",
        "x=error:seed=18446744073709551616", "x=error:seed=9.0",
        // sleep_for casts the delay to integer nanoseconds.
        "x=delay:ms=inf", "x=delay:ms=1e300", "x=delay:ms=nan", "x=delay:ms=-1"})
    EXPECT_THROW(reg.arm_from_string(bad), InvalidArgument) << bad;
  FailpointSpec forever;
  forever.kind = FailpointKind::kDelay;
  forever.delay_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(reg.arm("test.delay.forever", forever), InvalidArgument);
  EXPECT_EQ(reg.armed(), 5u);
}

// ---------------------------------------------------------------------------
// Peer workers: a failed stage stays with the worker that ran it
// ---------------------------------------------------------------------------

TEST(Fault, LiveExpiredTasksStayExpiredUnderCrashes) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.probability = 0.5;
  spec.seed = 13;
  FailpointRegistry::instance().arm("serving.stage.crash", spec);

  ServerHarness harness;
  telemetry::MetricsRegistry metrics;
  serving::ServerConfig cfg;
  cfg.classes = {{"tight", 40.0, 1.0}};
  cfg.max_stage_retries = 2;
  cfg.workers = 4;
  cfg.metrics = &metrics;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(8)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t expired = 0;
  std::size_t degraded = 0;
  std::size_t retries = 0;
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    if (r.expired) {
      ++expired;
      EXPECT_GE(r.latency_ms, 40.0);  // only the deadline expires a request
    }
    degraded += r.degraded ? 1 : 0;
    retries += r.retries;
  }
  const auto snap = telemetry::parse_metrics_text(metrics.snapshot_text());
  EXPECT_EQ(snap.counters.at("serving.expired"), expired);
  EXPECT_EQ(snap.counters.at("serving.degraded"), degraded);
  EXPECT_EQ(snap.counters.at("serving.retries"), retries);
  // Every retry is an injected crash; a crash past the deadline expires its
  // request instead of charging a retry.
  EXPECT_LE(retries, FailpointRegistry::instance().fires("serving.stage.crash"));
}

TEST(Fault, LiveWorkerCrashIsRetriedOnHealthyWorker) {
  FailpointGuard guard;
  FailpointSpec spec;
  spec.max_fires = 1;
  FailpointRegistry::instance().arm("serving.stage.crash", spec);

  // A crash is a stage that throws. The worker that ran it stays healthy:
  // it reruns the stage at once and keeps serving the batch.
  ServerHarness harness;
  telemetry::MetricsRegistry metrics;
  telemetry::TraceRecorder trace(1024);
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 2.0;  // full depth
  cfg.workers = 2;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(6)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t total_retries = 0;
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    EXPECT_FALSE(r.expired);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.stages_run, kStages);
    total_retries += r.retries;
    if (r.retries == 0) continue;
    // The failed stage completes on the worker it failed on.
    const auto span = trace.span(r.span_id);
    const auto error = std::find_if(span.begin(), span.end(), [](const auto& ev) {
      return ev.kind == telemetry::TraceEventKind::kStageError;
    });
    ASSERT_NE(error, span.end());
    const auto done = std::find_if(error, span.end(), [](const auto& ev) {
      return ev.kind == telemetry::TraceEventKind::kStageDone;
    });
    ASSERT_NE(done, span.end());
    EXPECT_EQ(done->stage, error->stage);
    EXPECT_EQ(done->worker, error->worker);
  }
  EXPECT_EQ(total_retries, 1u);
  // Counter reconciliation: one injected fault, one retry.
  EXPECT_EQ(FailpointRegistry::instance().fires("serving.stage.crash"), 1u);
  const auto snap = telemetry::parse_metrics_text(metrics.snapshot_text());
  EXPECT_EQ(snap.counters.at("serving.retries"), 1u);
  EXPECT_EQ(snap.counters.at("serving.degraded"), 0u);
}

TEST(Fault, LivePersistentCrashesDegradeInsteadOfHanging) {
  FailpointGuard guard;
  FailpointRegistry::instance().arm("serving.stage.crash", FailpointSpec{});  // p=1, ∞

  ServerHarness harness;
  telemetry::MetricsRegistry metrics;
  serving::ServerConfig cfg;
  cfg.max_stage_retries = 1;
  cfg.workers = 2;
  cfg.metrics = &metrics;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(5)) requests.push_back({input, 0});
  // The robustness contract under total loss: no hang, no escaping
  // exception, every request answered (degraded, with zero stages).
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.stages_run, 0u);
  }
  const auto snap = telemetry::parse_metrics_text(metrics.snapshot_text());
  EXPECT_EQ(snap.counters.at("serving.degraded"), requests.size());
  EXPECT_EQ(FailpointRegistry::instance().fires("serving.stage.crash"),
            snap.counters.at("serving.retries"));

  // Both workers came back: once the fault clears, the same server answers
  // the next batch in full.
  FailpointRegistry::instance().disarm_all();
  const auto recovered = server.process_batch(requests);
  ASSERT_EQ(recovered.size(), requests.size());
  for (const auto& r : recovered) {
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_GE(r.stages_run, 1u);
  }
}

TEST(Fault, LiveRejectsInvalidInputsUpFront) {
  // A pool server refuses what it cannot serve before any helper thread
  // starts (a throw with joinable threads alive would terminate the
  // process), and a refused call leaves it serving.
  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.workers = 4;
  serving::InferenceServer server(harness.entry(), cfg);

  EXPECT_THROW(server.process_batch({}), InvalidArgument);
  std::vector<serving::InferenceRequest> batch;
  for (const auto& input : make_inputs(4)) batch.push_back({input, 0});
  batch.push_back({make_inputs(1).front(), 7});  // unknown class, last
  EXPECT_THROW(server.process_batch(batch), InvalidArgument);
  batch.back() = {tensor::Tensor{}, 0};  // empty input, last
  EXPECT_THROW(server.process_batch(batch), InvalidArgument);

  batch.pop_back();
  const auto responses = server.process_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    EXPECT_FALSE(r.degraded);
  }

  serving::ServerConfig no_workers = cfg;
  no_workers.workers = 0;
  EXPECT_THROW(serving::InferenceServer(harness.entry(), no_workers), InvalidArgument);

  serving::ModelEntry stageless("stageless", nn::StagedModel(4));
  stageless.curves.fit(fake_eval());
  EXPECT_THROW(serving::InferenceServer(stageless, cfg), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Serving tier: stage-failure degradation
// ---------------------------------------------------------------------------

TEST(Fault, ServerStageCrashIsRetriedTransparently) {
  FailpointGuard guard;
  ServerHarness harness;
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(4)) requests.push_back({input, 0});

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FailpointSpec spec;
    spec.max_fires = 1;
    FailpointRegistry::instance().arm("serving.stage.crash", spec);
    serving::ServerConfig cfg;
    cfg.workers = workers;
    serving::InferenceServer server(harness.entry(), cfg);
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
}

TEST(Fault, ServerPersistentStageCrashDegradesEveryRequest) {
  FailpointGuard guard;
  ServerHarness harness;
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(3)) requests.push_back({input, 0});

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FailpointRegistry::instance().arm("serving.stage.crash", FailpointSpec{});  // p=1, ∞
    serving::ServerConfig cfg;
    cfg.max_stage_retries = 2;
    cfg.workers = workers;
    serving::InferenceServer server(harness.entry(), cfg);
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
}

TEST(Fault, ServerShedPlusCrashCountersReconcile) {
  FailpointGuard guard;
  // Three crashes at a budget of two retries, on one worker: a failed stage
  // retries at once on its worker, so the first request picked fails three
  // times and degrades with no stage run. The other four complete.
  FailpointSpec spec;
  spec.max_fires = 3;
  FailpointRegistry::instance().arm("serving.stage.crash", spec);

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.max_stage_retries = 2;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(5)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t shed = 0;
  std::size_t total_retries = 0;
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    EXPECT_FALSE(r.expired);
    total_retries += r.retries;
    if (r.degraded) {
      ++shed;
      EXPECT_EQ(r.stages_run, 0u);
      EXPECT_EQ(r.retries, cfg.max_stage_retries + 1);
    } else {
      EXPECT_EQ(r.retries, 0u);
    }
  }
  EXPECT_EQ(shed, 1u);
  EXPECT_EQ(total_retries, 3u);

  // The ledger's shed column counts degraded answers; its retries column
  // reconciles with the injected faults.
  serving::UsageMeter meter(harness.entry().stage_ms, {"default"});
  meter.record(requests, responses, kStages);
  const auto usage = meter.usage();
  EXPECT_EQ(usage[0].shed, 1u);
  EXPECT_EQ(usage[0].retries, 3u);
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

  serving::ServerConfig no_workers;
  no_workers.workers = 0;
  EXPECT_THROW(serving::InferenceServer(harness.entry(), no_workers), InvalidArgument);

  // A model with no stages is refused before any engine exists, even with
  // fitted curves.
  serving::ModelEntry stageless("stageless", nn::StagedModel(4));
  stageless.curves.fit(fake_eval());
  EXPECT_THROW(serving::InferenceServer(stageless, serving::ServerConfig{}),
               InvalidArgument);
}

TEST(Fault, RejectedInputDegradesAtOnce) {
  FailpointGuard guard;
  // An input the model cannot take makes the first stage throw
  // InvalidArgument. A stage is deterministic, so retrying can never
  // succeed: the request degrades at once and charges no retry.
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

  // Peer workers: a batch of wrong-shaped inputs. Every worker rejects its
  // requests and keeps serving the rest.
  serving::ServerConfig pool;
  pool.workers = 4;
  serving::InferenceServer pool_server(harness.entry(), pool);
  const std::vector<serving::InferenceRequest> wrong_batch(4, {wrong, 0});
  const auto rejected = pool_server.process_batch(wrong_batch);
  ASSERT_EQ(rejected.size(), wrong_batch.size());
  for (const auto& r : rejected) {
    expect_well_formed(r, kStages);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.stages_run, 0u);
    EXPECT_EQ(r.retries, 0u);
  }
}

// ---------------------------------------------------------------------------
// Environment-armed chaos (CI's EUGENE_FAILPOINTS job)
// ---------------------------------------------------------------------------

TEST(FaultEnv, LiveSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI arms e.g. EUGENE_FAILPOINTS='serving.stage.crash=error:p=0.05:seed=11';
  // without the variable this runs as a plain peer-worker smoke test.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  ServerHarness harness;
  serving::ServerConfig cfg;
  cfg.max_stage_retries = 3;
  cfg.workers = 3;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(10)) requests.push_back({input, 0});
  const auto responses = server.process_batch(requests);  // must not throw

  ASSERT_EQ(responses.size(), requests.size());
  std::size_t retries = 0;
  std::size_t degraded = 0;
  for (const auto& r : responses) {
    expect_well_formed(r, kStages);
    retries += r.retries;
    degraded += r.degraded ? 1 : 0;
  }
  // Each retry is an injected stage crash (a kind=delay arming stalls
  // instead, and charges none).
  EXPECT_LE(retries, FailpointRegistry::instance().fires("serving.stage.crash"));
  if (armed == 0) {
    EXPECT_EQ(retries + degraded, 0u);
  }
}

TEST(FaultEnv, LiveOverloadControlSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI's overload-chaos job arms e.g.
  //   EUGENE_FAILPOINTS='serving.stage.crash=error:p=0.2:seed=3'
  // Without the variable this is a smoke test of a pool of peer workers
  // serving batches four times its size, with every serving counter
  // reconciled against the responses.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  ServerHarness harness;
  telemetry::MetricsRegistry metrics;
  serving::ServerConfig cfg;
  cfg.max_stage_retries = 4;
  cfg.workers = 3;
  cfg.metrics = &metrics;
  serving::InferenceServer server(harness.entry(), cfg);
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(12)) requests.push_back({input, 0});

  constexpr std::size_t kBatches = 3;
  std::size_t retries = 0;
  std::size_t degraded = 0;
  std::size_t expired = 0;
  std::vector<std::size_t> reached(kStages, 0);  // responses with stages_run > s
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    const auto responses = server.process_batch(requests);  // must not throw
    ASSERT_EQ(responses.size(), requests.size());
    for (const auto& r : responses) {
      expect_well_formed(r, kStages);
      retries += r.retries;
      degraded += r.degraded ? 1 : 0;
      expired += r.expired ? 1 : 0;
      for (std::size_t s = 0; s < r.stages_run; ++s) ++reached[s];
    }
  }
  const auto snap = telemetry::parse_metrics_text(metrics.snapshot_text());
  EXPECT_EQ(snap.counters.at("serving.requests"), kBatches * requests.size());
  EXPECT_EQ(snap.counters.at("serving.retries"), retries);
  EXPECT_EQ(snap.counters.at("serving.degraded"), degraded);
  EXPECT_EQ(snap.counters.at("serving.expired"), expired);
  // A stage's latency is recorded once per stage that ran to completion.
  for (std::size_t s = 0; s < kStages; ++s) {
    const std::string name = "serving.stage_latency_ms.stage" + std::to_string(s);
    ASSERT_EQ(snap.histograms.count(name), 1u) << name;
    EXPECT_EQ(snap.histograms.at(name).count, reached[s]) << name;
  }
  // Each retry is an injected stage crash (a kind=delay arming stalls
  // instead, and charges none).
  EXPECT_LE(retries, FailpointRegistry::instance().fires("serving.stage.crash"));
  if (armed == 0) {
    EXPECT_EQ(retries, 0u);
  }
}

TEST(FaultEnv, ServerSurvivesEnvironmentArmedChaos) {
  FailpointGuard guard;
  // CI arms e.g. EUGENE_FAILPOINTS='serving.stage.crash=error:p=0.05:seed=4';
  // unarmed it is a smoke test.
  const std::size_t armed = FailpointRegistry::instance().arm_from_env();

  ServerHarness harness;
  std::vector<serving::InferenceRequest> requests;
  for (const auto& input : make_inputs(8)) requests.push_back({input, 0});

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    serving::ServerConfig cfg;
    cfg.max_stage_retries = 3;
    cfg.workers = workers;
    serving::InferenceServer server(harness.entry(), cfg);
    for (int batch = 0; batch < 3; ++batch) {
      const auto responses = server.process_batch(requests);  // must not throw
      ASSERT_EQ(responses.size(), requests.size());
      for (const auto& r : responses) {
        EXPECT_LE(r.stages_run, kStages);
        if (!r.expired && !r.degraded) {
          EXPECT_GE(r.stages_run, 1u);
        }
        if (armed == 0) {
          EXPECT_EQ(r.retries, 0u);
          EXPECT_FALSE(r.degraded);
        }
      }
    }
  }
}

}  // namespace
}  // namespace eugene
