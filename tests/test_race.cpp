// TSan-targeted stress tests for the concurrent core: the model registry,
// the usage meter, logging, process_batch's peer workers, and threads
// serving one published model. These pass under the plain build too, but
// their real job is to give ThreadSanitizer (the `tsan` CMake preset)
// schedules in which a data race would be visible.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "calib/evaluation.hpp"
#include "common/logging.hpp"
#include "core/eugene_service.hpp"
#include "data/synthetic_images.hpp"
#include "gp/confidence_curve.hpp"
#include "serving/registry.hpp"
#include "serving/usage.hpp"
#include "serving_fixtures.hpp"

namespace eugene {
namespace {

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
          ASSERT_EQ(registry.pin()->entry(*h).name, "t0-m0");
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
        ASSERT_EQ(registry.pin()->entry(h).name, name);
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
  serving::UsageMeter meter({1.0, 2.0}, {"a", "b"});

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
  // Two callers serve one model on peer-worker pools of 3 and 2 workers, the
  // second with a deadline tight enough that requests keep expiring, while
  // a third thread drains the service. Exercises the engine lock, the
  // helper threads, the policy and the lifecycle gate under TSan: each
  // batch is either served in full or answered with typed drain responses.
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.channels = 2;
  data_cfg.height = 8;
  data_cfg.width = 8;
  Rng rng(17);
  const data::Dataset train = data::generate_images(data_cfg, 60, rng);
  const data::Dataset batch = data::generate_images(data_cfg, 8, rng);

  core::EugeneService service;
  auto entry = std::make_shared<serving::ModelEntry>(
      "pool", nn::build_staged_resnet(tiny_model_config()));
  entry->curves.fit(calib::evaluate_staged(entry->model, train));
  entry->calibrated = true;
  const std::size_t handle = service.registry().add_entry(std::move(entry));
  std::vector<serving::InferenceRequest> requests;
  for (const tensor::Tensor& x : batch.samples) requests.push_back({x, 0});

  auto run_one = [&](double deadline_ms, std::size_t workers) {
    serving::ServerConfig cfg;
    cfg.classes = {{"default", deadline_ms, 1.0}};
    cfg.workers = workers;
    const auto results = service.infer_batch(handle, requests, cfg);
    ASSERT_EQ(results.size(), batch.size());
    const bool drained = results.front().draining;
    for (const auto& r : results) {
      ASSERT_LE(r.stages_run, 2u);
      ASSERT_EQ(r.draining, drained);  // the gate takes or refuses a whole batch
      if (drained) {
        ASSERT_EQ(r.stages_run, 0u);
      }
    }
  };

  std::thread relaxed([&] {
    for (int rep = 0; rep < 3; ++rep) run_one(1e9, 3);
  });
  std::thread strained([&] {
    for (int rep = 0; rep < 6; ++rep) run_one(0.5, 2);
  });
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    core::DrainOptions options;
    options.timeout_ms = 30000.0;
    EXPECT_TRUE(service.begin_drain(options).report.completed);
  });
  relaxed.join();
  strained.join();
  drainer.join();
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
