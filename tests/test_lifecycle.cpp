// Zero-downtime lifecycle suite (DESIGN.md §13): the ServerLifecycle state
// machine, epoch-pinned registry publication, live snapshots, hot model
// swap, and graceful drain — under concurrent traffic.
//
// The Lifecycle.* tests are deterministic units. The LifecycleChaos.* tests
// hammer serving threads against a mutator looping snapshot / restore /
// swap / reload; they pass everywhere but earn their keep under the `tsan`
// and `asan-ubsan` presets, where any crack in the epoch-publication
// contract (a reader observing a half-published view, a clone touching
// inference scratch) becomes a reported race. CI's lifecycle-chaos job
// re-runs them with EUGENE_FAILPOINTS arming the drain/swap/snapshot seams.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "calib/evaluation.hpp"
#include "common/failpoint.hpp"
#include "common/lifecycle.hpp"
#include "core/eugene_service.hpp"
#include "serving/snapshot.hpp"
#include "serving/usage.hpp"

namespace eugene {
namespace {

namespace fs = std::filesystem;

/// Disarms every failpoint on entry and exit of a test body. Chaos tests
/// that want the environment seams armed simply don't use it.
struct FailpointGuard {
  FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
  ~FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
};

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag)
      : path("/tmp/eugene_lifecycle_" + tag + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

nn::StagedResNetConfig tiny_model_config(std::uint64_t seed = 1) {
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {3, 4};
  cfg.head_hidden = 8;
  cfg.seed = seed;
  return cfg;
}

constexpr std::size_t kStages = 2;  // tiny_model_config has two stages

calib::StagedEvaluation fake_eval(std::uint64_t seed = 5) {
  calib::StagedEvaluation eval;
  eval.records.resize(kStages);
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const double base = rng.uniform(0.1, 0.9);
    for (std::size_t s = 0; s < kStages; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(std::min(
          1.0, base + 0.2 * (static_cast<double>(s) + rng.uniform(0.0, 0.1))));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

/// A fully serve-ready entry built off to the side (no published state is
/// ever mutated — the epoch contract forbids it).
std::shared_ptr<serving::ModelEntry> make_calibrated_entry(
    const std::string& name, std::uint64_t seed = 1) {
  auto entry = std::make_shared<serving::ModelEntry>(
      name, nn::build_staged_resnet(tiny_model_config(seed)));
  entry->curves.fit(fake_eval(seed + 4));
  entry->costs.stage_ms = {1.0 + static_cast<double>(seed), 2.0};
  entry->costs.jitter_fraction = 0.0;
  entry->calibration_alpha = {0.4, 0.6};
  entry->calibrated = true;
  return entry;
}

std::size_t add_calibrated_model(core::EugeneService& service,
                                 const std::string& name,
                                 std::uint64_t seed = 1) {
  return service.registry().add_entry(make_calibrated_entry(name, seed));
}

serving::ModelFactory tiny_factory(std::uint64_t seed = 99) {
  return [seed](const std::string&) {
    return nn::build_staged_resnet(tiny_model_config(seed));
  };
}

std::vector<serving::InferenceRequest> make_requests(std::size_t n,
                                                     std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<serving::InferenceRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    requests.push_back({tensor::Tensor::randn({2, 8, 8}, rng), 0});
  return requests;
}

core::DrainOptions drain_options(double timeout_ms) {
  core::DrainOptions options;
  options.timeout_ms = timeout_ms;
  return options;
}

// ---- ServerLifecycle units -------------------------------------------------

TEST(Lifecycle, StateMachineOrder) {
  FailpointGuard guard;
  ServerLifecycle lc;
  EXPECT_EQ(lc.state(), ServerState::kStarting);
  EXPECT_STREQ(server_state_name(lc.state()), "starting");

  // First admission promotes Starting → Serving.
  EXPECT_TRUE(lc.try_admit(2));
  EXPECT_EQ(lc.state(), ServerState::kServing);
  EXPECT_EQ(lc.inflight(), 2u);
  lc.finish(2);
  EXPECT_EQ(lc.inflight(), 0u);

  const DrainReport report = lc.begin_drain(1000.0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.inflight_at_begin, 0u);
  EXPECT_EQ(lc.state(), ServerState::kDraining);
  EXPECT_FALSE(lc.try_admit());

  lc.set_stopped();
  EXPECT_EQ(lc.state(), ServerState::kStopped);
  EXPECT_STREQ(server_state_name(lc.state()), "stopped");
  EXPECT_FALSE(lc.try_admit());
  // Stopped is terminal: a re-drain reports instant completion.
  EXPECT_TRUE(lc.begin_drain(0.0).completed);
}

TEST(Lifecycle, SetServingPromotesOnlyFromStarting) {
  FailpointGuard guard;
  ServerLifecycle lc;
  lc.set_serving();
  EXPECT_EQ(lc.state(), ServerState::kServing);
  (void)lc.begin_drain(0.0);
  lc.set_serving();  // no-op from Draining
  EXPECT_EQ(lc.state(), ServerState::kDraining);
}

TEST(Lifecycle, DrainWaitsForInflightWork) {
  FailpointGuard guard;
  ServerLifecycle lc;
  ASSERT_TRUE(lc.try_admit());

  std::atomic<bool> finished{false};
  std::thread worker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished.store(true);
    lc.finish();
  });
  const DrainReport report = lc.begin_drain(10000.0);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(finished.load());  // the drain really waited
  EXPECT_EQ(report.inflight_at_begin, 1u);
  EXPECT_EQ(report.inflight_abandoned, 0u);
  worker.join();
}

TEST(Lifecycle, DrainTimeoutAbandonsStragglers) {
  FailpointGuard guard;
  ServerLifecycle lc;
  ASSERT_TRUE(lc.try_admit(3));
  const DrainReport report = lc.begin_drain(10.0);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.inflight_at_begin, 3u);
  EXPECT_EQ(report.inflight_abandoned, 3u);
  // Stragglers were abandoned, not dropped: their finish() is still legal
  // and a re-entered drain now completes.
  lc.finish(3);
  EXPECT_TRUE(lc.begin_drain(1000.0).completed);
}

// ---- epoch publication units ----------------------------------------------

TEST(LifecycleEpoch, PinnedViewIsImmuneToLaterMutations) {
  FailpointGuard guard;
  serving::ModelRegistry registry;
  EXPECT_EQ(registry.pin()->epoch(), 0u);  // empty initial epoch

  const std::size_t handle = registry.add_entry(make_calibrated_entry("m", 1));
  const serving::ModelRegistry::ViewPtr pinned = registry.pin();
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->entry(handle).calibration_alpha,
            (std::vector<double>{0.4, 0.6}));

  registry.update(handle, [](serving::ModelEntry& e) {
    e.calibration_alpha = {0.9, 0.9};
  });

  // The pinned epoch still reads the old α; a fresh pin reads the new one.
  EXPECT_EQ(pinned->entry(handle).calibration_alpha,
            (std::vector<double>{0.4, 0.6}));
  EXPECT_EQ(registry.pin()->entry(handle).calibration_alpha,
            (std::vector<double>{0.9, 0.9}));
  EXPECT_EQ(registry.pin()->epoch(), 2u);
  // COW replaced the entry object; the pinned one is untouched.
  EXPECT_NE(&pinned->entry(handle), &registry.pin()->entry(handle));
}

TEST(LifecycleEpoch, ReplaceOrAddPublishesOneEpoch) {
  FailpointGuard guard;
  serving::ModelRegistry registry;
  registry.add_entry(make_calibrated_entry("a", 1));
  registry.add_entry(make_calibrated_entry("b", 2));
  const std::uint64_t before = registry.epoch();

  std::vector<std::shared_ptr<serving::ModelEntry>> batch;
  batch.push_back(make_calibrated_entry("b", 7));  // replaces handle 1
  batch.push_back(make_calibrated_entry("c", 8));  // appends as handle 2
  registry.replace_or_add(std::move(batch));

  EXPECT_EQ(registry.epoch(), before + 1);  // ONE epoch for the whole batch
  EXPECT_EQ(registry.find("b").value(), 1u);
  EXPECT_EQ(registry.find("c").value(), 2u);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(LifecycleEpoch, SwapStallErrorAbortsPublicationCleanly) {
  FailpointGuard guard;
  serving::ModelRegistry registry;
  const std::size_t handle = registry.add_entry(make_calibrated_entry("m", 1));
  const std::uint64_t epoch = registry.epoch();

  FailpointRegistry::instance().arm("registry.swap.stall", FailpointSpec{});
  EXPECT_THROW(registry.replace(handle, make_calibrated_entry("m", 9)),
               FailpointError);
  FailpointRegistry::instance().disarm_all();

  // The failed publication left no trace: same epoch, same entry, and the
  // next publication commits the epoch number the failed one never used.
  EXPECT_EQ(registry.epoch(), epoch);
  EXPECT_EQ(registry.entry(handle).costs.stage_ms[0], 2.0);  // seed-1 entry
  registry.replace(handle, make_calibrated_entry("m", 9));
  EXPECT_EQ(registry.epoch(), epoch + 1);
  EXPECT_EQ(registry.entry(handle).costs.stage_ms[0], 10.0);  // seed-9 entry
}

// ---- service-level drain / swap / reload ----------------------------------

TEST(LifecycleService, DrainUnderLoadDropsNothingAndFlushesJournal) {
  FailpointGuard guard;
  TempDir dir("drain");
  const std::string journal = dir.path + "_journal.bin";
  std::remove(journal.c_str());

  core::EugeneService service;
  constexpr std::size_t kThreads = 4;
  for (std::size_t t = 0; t < kThreads; ++t)
    add_calibrated_model(service, "m" + std::to_string(t), t + 1);

  serving::UsageMeter meter(
      sched::StageCostModel{{1.0, 2.0}, 0.0},
      {"default"});
  meter.open_journal(journal);

  // Serving threads: each owns a distinct handle (published entries hold
  // per-model inference scratch, which is thread-owned by contract) and
  // journals every completed batch. They stop at the first drain-typed
  // rejection.
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> servers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t] {
      const auto requests = make_requests(3, 100 + t);
      serving::ServerConfig cfg;
      cfg.early_exit_confidence = 0.8;
      for (;;) {
        // The thread holds its own admission unit around the serve AND the
        // journal append, so the drain's journal flush can only run after
        // every journaled batch has committed (admissions nest: the server
        // admits the batch inside this unit).
        if (!service.lifecycle().try_admit()) return;
        const auto responses = service.infer_batch(t, requests, cfg);
        if (responses.front().draining) {
          // Drain won the race between our admission and the batch's.
          for (const auto& r : responses) {
            EXPECT_TRUE(r.draining);
            EXPECT_EQ(r.stages_run, 0u);  // typed rejection: no stage ran
          }
          service.lifecycle().finish();
          return;
        }
        for (const auto& r : responses) EXPECT_GE(r.stages_run, 1u);
        meter.record(requests, responses, kStages);
        completed.fetch_add(responses.size(), std::memory_order_relaxed);
        service.lifecycle().finish();
      }
    });
  }

  // Let traffic build, then drain with journal flush + final snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  core::DrainOptions options;
  options.timeout_ms = 30000.0;
  options.snapshot_dir = dir.path;
  options.usage = &meter;
  const core::DrainOutcome outcome = service.begin_drain(options);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(outcome.report.completed);
  EXPECT_EQ(outcome.report.inflight_abandoned, 0u);
  EXPECT_TRUE(outcome.journal_flushed);
  EXPECT_GE(outcome.snapshot_epoch, 1u);
  EXPECT_EQ(service.lifecycle().state(), ServerState::kStopped);
  EXPECT_GT(completed.load(), 0u);

  // Every journaled batch survived the flush: a fresh meter replays the
  // complete ledger with no torn tail.
  serving::UsageMeter replayed(sched::StageCostModel{{1.0, 2.0}, 0.0},
                               {"default"});
  const auto replay = replayed.replay_journal(journal);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replayed.usage()[0].requests, completed.load());

  // The lifecycle gauge reports Stopped (read before any later service
  // construction resets it to Starting).
  const auto snapshot = telemetry::parse_metrics_text(service.metrics_text());
  EXPECT_EQ(snapshot.gauges.at("serving.lifecycle.state"), 3.0);

  // The final snapshot restores a serve-ready model set.
  core::EugeneService fresh;
  EXPECT_EQ(fresh.restore(dir.path, tiny_factory()), kThreads);
}

TEST(LifecycleService, OpenBreakersDoNotBlockDrain) {
  FailpointGuard guard;
  core::EugeneService service;
  const std::size_t handle = add_calibrated_model(service, "m", 1);

  // What an open breaker stood for — a worker that fails every stage — is
  // a stage crash that always fires, here on every worker of a pool. Each
  // request still finishes (degraded, zero stages), and the in-flight
  // accounting its batch holds must still reach zero so the drain
  // finishes. A hung drain here would time out and fail the test.
  FailpointRegistry::instance().arm("serving.stage.crash", FailpointSpec{});

  serving::ServerConfig config;
  config.early_exit_confidence = 0.8;
  config.workers = 2;
  const auto requests = make_requests(6);

  std::atomic<int> served{0};
  std::atomic<bool> stopped{false};
  // Serves until the drain turns a batch away (bounded for safety).
  auto serve_until_drained = [&] {
    for (int rep = 0; rep < 100000; ++rep) {
      const auto results = service.infer_batch(handle, requests, config);
      ASSERT_EQ(results.size(), requests.size());
      const bool drained = results.front().draining;
      for (const auto& r : results) {
        ASSERT_EQ(r.draining, drained);  // the gate takes or refuses a whole batch
        EXPECT_EQ(r.stages_run, 0u);
        EXPECT_EQ(r.degraded, !drained);
      }
      if (drained) return;
      served.fetch_add(1);
    }
  };
  std::thread traffic([&] {
    serve_until_drained();
    stopped.store(true);
  });
  // Drain once the pool has served a batch under the fault.
  while (served.load() == 0 && !stopped.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const core::DrainOutcome outcome = service.begin_drain(drain_options(30000.0));
  traffic.join();
  EXPECT_TRUE(outcome.report.completed);

  // Post-drain, the pool answers with typed drained results, zero stages.
  const auto rejected = service.infer_batch(handle, requests, config);
  for (const auto& r : rejected) {
    EXPECT_TRUE(r.draining);
    EXPECT_EQ(r.stages_run, 0u);
  }
}

TEST(LifecycleService, HotSwapKeepsArtifactsAndBumpsEpoch) {
  FailpointGuard guard;
  core::EugeneService service;
  const std::size_t handle = add_calibrated_model(service, "m", 1);
  const std::uint64_t epoch = service.registry().epoch();
  const auto requests = make_requests(4);

  service.swap_model(handle, nn::build_staged_resnet(tiny_model_config(21)));
  EXPECT_EQ(service.registry().epoch(), epoch + 1);
  const serving::ModelEntry& swapped = service.registry().entry(handle);
  EXPECT_EQ(swapped.name, "m");
  EXPECT_TRUE(swapped.calibrated);  // artifacts carried over
  EXPECT_EQ(swapped.calibration_alpha, (std::vector<double>{0.4, 0.6}));

  // The swapped-in model serves immediately.
  const auto responses =
      service.infer_batch(handle, requests, serving::ServerConfig{});
  for (const auto& r : responses) EXPECT_FALSE(r.draining);

  // A different architecture must not inherit stale artifacts.
  nn::StagedResNetConfig other = tiny_model_config(3);
  other.stage_channels = {3, 4, 5};  // three stages now
  EXPECT_THROW(
      service.swap_model(handle, nn::build_staged_resnet(other)),
      InvalidArgument);
  service.swap_model(handle, nn::build_staged_resnet(other),
                     /*keep_artifacts=*/false);
  EXPECT_FALSE(service.registry().entry(handle).calibrated);
}

TEST(LifecycleService, KillMidSwapRestartsOnPreviousGoodEpoch) {
  FailpointGuard guard;
  TempDir dir("midswap");
  core::EugeneService service;
  const std::size_t handle = add_calibrated_model(service, "m", 1);
  ASSERT_EQ(service.snapshot(dir.path), 1u);
  const auto requests = make_requests(6);
  const auto expected =
      service.infer_batch(handle, requests, serving::ServerConfig{});

  // Crash 1: the publication itself dies (swap stall). Nothing changed.
  FailpointRegistry::instance().arm("registry.swap.stall", FailpointSpec{});
  EXPECT_THROW(service.swap_model(
                   handle, nn::build_staged_resnet(tiny_model_config(33))),
               FailpointError);
  FailpointRegistry::instance().disarm_all();

  // Crash 2: the process dies mid-snapshot of post-swap state. The torn
  // epoch-2 attempt must not shadow the committed epoch 1.
  service.swap_model(handle, nn::build_staged_resnet(tiny_model_config(33)));
  FailpointRegistry::instance().arm("snapshot.manifest.crash", FailpointSpec{});
  EXPECT_THROW((void)service.snapshot(dir.path), FailpointError);
  FailpointRegistry::instance().disarm_all();

  // "Restart": a fresh process restores the previous good epoch and answers
  // exactly as the pre-swap server did.
  core::EugeneService restarted;
  EXPECT_EQ(restarted.restore(dir.path, tiny_factory()), 1u);
  const auto actual =
      restarted.infer_batch(0, requests, serving::ServerConfig{});
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].label, expected[i].label) << "request " << i;
    EXPECT_NEAR(actual[i].confidence, expected[i].confidence, 1e-12);
  }
}

// ---- chaos: serving threads vs a snapshot/swap/reload mutator --------------

TEST(LifecycleChaos, ServeWhileSnapshotSwapAndReload) {
  // Environment failpoints stay armed on purpose: CI's lifecycle-chaos job
  // injects drain hangs, swap stalls, and snapshot races here.
  TempDir dir("chaos");
  core::EugeneService service;
  constexpr std::size_t kThreads = 3;
  for (std::size_t t = 0; t < kThreads; ++t)
    add_calibrated_model(service, "m" + std::to_string(t), t + 1);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0};

  // Serving threads: each owns one handle; every batch pins its own epoch.
  std::vector<std::thread> servers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t] {
      const auto requests = make_requests(2, 200 + t);
      serving::ServerConfig cfg;
      cfg.early_exit_confidence = 0.8;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto responses = service.infer_batch(t, requests, cfg);
        for (const auto& r : responses) {
          EXPECT_LT(r.label, 4u);
          EXPECT_FALSE(r.draining);  // the mutator never drains
        }
        served.fetch_add(responses.size(), std::memory_order_relaxed);
      }
    });
  }

  // Mutator: live snapshots, COW recalibration, hot swaps, and full
  // reloads, all while the servers hammer the same handles. Swap sources
  // are private template models — published entries are never mutated.
  const std::uint64_t epoch_before = service.registry().epoch();
  for (int round = 0; round < 8; ++round) {
    try {
      (void)service.snapshot(dir.path);
      service.registry().update(
          static_cast<std::size_t>(round) % kThreads,
          [round](serving::ModelEntry& e) {
            e.calibration_alpha = {0.4 + 0.01 * round, 0.6};
          });
      service.swap_model(static_cast<std::size_t>(round) % kThreads,
                         nn::build_staged_resnet(
                             tiny_model_config(40 + static_cast<std::uint64_t>(round))));
      (void)service.reload(dir.path, tiny_factory());
    } catch (const FailpointError&) {
      // CI arms the swap/snapshot seams with p<1: an injected abort must
      // leave the registry publishable — the next round proves it.
    }
  }
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(service.registry().epoch(), epoch_before);
  EXPECT_EQ(service.registry().size(), kThreads);

  // After the dust settles the registry still snapshots and restores.
  FailpointRegistry::instance().disarm_all();
  const std::uint64_t final_epoch = service.snapshot(dir.path);
  core::EugeneService fresh;
  EXPECT_EQ(fresh.restore(dir.path, tiny_factory()), kThreads);
  EXPECT_GE(final_epoch, 1u);
}

TEST(LifecycleChaos, DrainRacesServingThreads) {
  // SIGTERM-under-load shape: traffic on every handle, drain fired from a
  // separate thread mid-flight. No request may be dropped: each one either
  // completes normally or comes back drain-typed with zero stages run.
  TempDir dir("drainrace");
  core::EugeneService service;
  constexpr std::size_t kThreads = 3;
  for (std::size_t t = 0; t < kThreads; ++t)
    add_calibrated_model(service, "m" + std::to_string(t), t + 1);

  std::atomic<std::size_t> completed{0}, drained{0};
  std::vector<std::thread> servers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t] {
      const auto requests = make_requests(2, 300 + t);
      serving::ServerConfig cfg;
      cfg.early_exit_confidence = 0.8;
      for (;;) {
        const auto responses = service.infer_batch(t, requests, cfg);
        if (responses.front().draining) {
          drained.fetch_add(responses.size(), std::memory_order_relaxed);
          return;
        }
        for (const auto& r : responses) EXPECT_GE(r.stages_run, 1u);
        completed.fetch_add(responses.size(), std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  core::DrainOptions options;
  options.timeout_ms = 30000.0;
  options.snapshot_dir = dir.path;
  const core::DrainOutcome outcome = service.begin_drain(options);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(outcome.report.completed);
  EXPECT_EQ(outcome.report.inflight_abandoned, 0u);
  EXPECT_GT(drained.load(), 0u);   // every thread saw its typed rejection
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GE(outcome.snapshot_epoch, 1u);

  core::EugeneService fresh;
  FailpointRegistry::instance().disarm_all();
  EXPECT_EQ(fresh.restore(dir.path, tiny_factory()), kThreads);
}

}  // namespace
}  // namespace eugene
