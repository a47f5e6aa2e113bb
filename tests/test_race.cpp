// TSan-targeted stress tests for the concurrent core: MPMC channels, the
// model registry, the usage meter, logging, the live scheduler, and threads
// serving one published model. These
// pass under the plain build too, but their real job is to give
// ThreadSanitizer (the `tsan` CMake preset) schedules in which a data race
// would be visible.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "calib/evaluation.hpp"
#include "common/channel.hpp"
#include "common/logging.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "gp/confidence_curve.hpp"
#include "sched/live.hpp"
#include "serving/registry.hpp"
#include "serving/usage.hpp"

namespace eugene {
namespace {

TEST(Race, ChannelMpmcConservesItems) {
  Channel<int> ch;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2000;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = ch.receive()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(ch.send(p * kPerProducer + i));
    });
  }
  for (auto& t : producers) t.join();
  ch.close();
  for (auto& t : consumers) t.join();

  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

TEST(Race, ChannelCloseWhileSendingAndDraining) {
  // The admit-while-draining shape: producers keep admitting until the
  // channel refuses, a closer pulls the plug mid-stream, and consumers must
  // drain exactly the accepted items.
  Channel<int> ch;
  std::atomic<int> accepted{0};
  std::atomic<int> received{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        if (!ch.send(i)) return;  // channel closed under us
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (ch.receive()) received.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(received.load(), accepted.load());
  EXPECT_EQ(ch.pending(), 0u);
}

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

TEST(Race, RegistryConcurrentLookupAndRegister) {
  serving::ModelRegistry registry;
  constexpr int kThreads = 4, kModelsPerThread = 3;
  std::atomic<bool> stop{false};

  std::vector<std::thread> lookups;
  for (int t = 0; t < 2; ++t) {
    lookups.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (auto h = registry.find("t0-m0")) {
          // Handles are stable: once found, the entry stays valid even while
          // other threads keep registering.
          ASSERT_LT(*h, registry.size());
          ASSERT_EQ(registry.entry(*h).name, "t0-m0");
        }
      }
    });
  }
  std::vector<std::thread> registrars;
  for (int t = 0; t < kThreads; ++t) {
    registrars.emplace_back([&registry, t] {
      for (int m = 0; m < kModelsPerThread; ++m) {
        const std::string name =
            "t" + std::to_string(t) + "-m" + std::to_string(m);
        const std::size_t h =
            registry.add(name, nn::build_staged_resnet(tiny_model_config()));
        ASSERT_EQ(registry.entry(h).name, name);
      }
    });
  }
  for (auto& t : registrars) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : lookups) t.join();

  EXPECT_EQ(registry.size(),
            static_cast<std::size_t>(kThreads * kModelsPerThread));
  for (int t = 0; t < kThreads; ++t)
    for (int m = 0; m < kModelsPerThread; ++m)
      EXPECT_TRUE(registry
                      .find("t" + std::to_string(t) + "-m" + std::to_string(m))
                      .has_value());
}

TEST(Race, UsageMeterConcurrentRecordAndCharge) {
  sched::StageCostModel costs;
  costs.stage_ms = {1.0, 2.0};
  serving::UsageMeter meter(costs, {"a", "b"});

  std::vector<serving::InferenceRequest> requests(4);
  std::vector<serving::InferenceResponse> responses(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].service_class = i % 2;
    responses[i].stages_run = 2;
  }

  constexpr int kThreads = 4, kBatches = 200;
  std::atomic<bool> stop{false};
  std::thread billing([&] {
    const serving::PricingPolicy pricing;
    while (!stop.load(std::memory_order_relaxed)) {
      // Charges only grow, so a class charge taken first can never exceed a
      // total taken afterwards.
      const double class0 = meter.charge(0, pricing);
      const double total = meter.total_charge(pricing);
      ASSERT_GE(class0, 0.0);
      ASSERT_LE(class0, total);
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t)
    recorders.emplace_back(
        [&] { for (int b = 0; b < kBatches; ++b) meter.record(requests, responses, 2); });
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_relaxed);
  billing.join();

  const auto usage = meter.usage();
  ASSERT_EQ(usage.size(), 2u);
  const std::size_t expected = kThreads * kBatches * 2;  // 2 requests per class
  EXPECT_EQ(usage[0].requests, expected);
  EXPECT_EQ(usage[1].requests, expected);
  EXPECT_EQ(usage[0].stages_executed, expected * 2);
}

TEST(Race, ConcurrentLoggingDoesNotRace) {
  set_log_level(LogLevel::Error);  // lines below threshold: cheap, still locked
  std::vector<std::thread> loggers;
  for (int t = 0; t < 4; ++t) {
    loggers.emplace_back([t] {
      for (int i = 0; i < 500; ++i)
        EUGENE_LOG(Warn) << "thread " << t << " line " << i;
    });
  }
  for (auto& t : loggers) t.join();
  set_log_level(LogLevel::Warn);
}

TEST(Race, LiveSchedulerAdmitWhileDraining) {
  // Two live-scheduler instances run concurrently, their workers all sharing
  // one model; one runs with a deadline tight enough that tasks keep expiring
  // (draining) while the dispatcher is still admitting stages. Exercises the
  // worker threads, both channel directions, and the policy under TSan.
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.channels = 2;
  data_cfg.height = 8;
  data_cfg.width = 8;
  Rng rng(17);
  const data::Dataset train = data::generate_images(data_cfg, 60, rng);
  const data::Dataset batch = data::generate_images(data_cfg, 8, rng);

  nn::StagedModel model = nn::build_staged_resnet(tiny_model_config());
  const calib::StagedEvaluation eval = calib::evaluate_staged(model, train);
  gp::ConfidenceCurveModel curves;
  curves.fit(eval);

  auto run_one = [&](double deadline_ms, std::size_t workers) {
    sched::LiveConfig cfg;
    cfg.deadline_ms = deadline_ms;
    const auto results = sched::run_live(model, workers, curves, batch.samples, cfg);
    ASSERT_EQ(results.size(), batch.size());
    for (const auto& r : results) ASSERT_LE(r.stages_run, 2u);
  };

  std::thread relaxed([&] { run_one(1e9, 3); });
  std::thread strained([&] {
    for (int rep = 0; rep < 3; ++rep) run_one(0.5, 2);
  });
  relaxed.join();
  strained.join();
}

TEST(Race, SharedHandleInferBatchMatchesSerial) {
  // Published entries are immutable and inference is const, so threads that
  // serve one handle share one model — and must answer exactly as a serial
  // run does.
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.channels = 2;
  data_cfg.height = 8;
  data_cfg.width = 8;
  Rng rng(23);
  const data::Dataset calib_set = data::generate_images(data_cfg, 60, rng);
  const data::Dataset batch = data::generate_images(data_cfg, 6, rng);

  core::EugeneService service;
  auto entry = std::make_shared<serving::ModelEntry>(
      "shared", nn::build_staged_resnet(tiny_model_config()));
  entry->curves.fit(calib::evaluate_staged(entry->model, calib_set));
  entry->calibrated = true;
  const std::size_t handle = service.registry().add_entry(std::move(entry));

  std::vector<serving::InferenceRequest> requests;
  for (const tensor::Tensor& x : batch.samples) requests.push_back({x, 0});
  serving::ServerConfig cfg;  // one class, no deadline
  cfg.early_exit_confidence = 0.5;
  const auto serial = service.infer_batch(handle, requests, cfg);

  std::vector<std::thread> servers;
  for (int t = 0; t < 4; ++t) {
    servers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        const auto got = service.infer_batch(handle, requests, cfg);
        ASSERT_EQ(got.size(), serial.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].label, serial[i].label) << i;
          EXPECT_EQ(got[i].confidence, serial[i].confidence) << i;
          EXPECT_EQ(got[i].stages_run, serial[i].stages_run) << i;
        }
      }
    });
  }
  for (auto& t : servers) t.join();
}

}  // namespace
}  // namespace eugene
