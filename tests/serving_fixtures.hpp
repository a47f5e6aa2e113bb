// Fixtures shared by the serving suites (fault, telemetry, lifecycle,
// recovery, race): a tiny two-stage staged ResNet, fabricated per-stage
// confidences to fit its curves without training, serve-ready entries that
// are built off to the side and only then published, and a throwaway
// directory. A published entry is const: tests that change one publish a
// new epoch through ModelRegistry::update() or replace().
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "calib/evaluation.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "nn/staged_model.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "serving/snapshot.hpp"

namespace eugene {

/// Disarms every failpoint on entry and exit of a test body. Chaos tests
/// that want the environment seams armed simply don't use it.
struct FailpointGuard {
  FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
  ~FailpointGuard() { FailpointRegistry::instance().disarm_all(); }
};

/// The throwaway directory /tmp/eugene_<name>_<pid>, removed on entry and
/// on destruction.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path("/tmp/eugene_" + name + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

inline nn::StagedResNetConfig tiny_model_config(std::uint64_t seed = 1) {
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

/// Fabricated per-stage confidences: enough structure for curve fitting
/// without training a model.
inline calib::StagedEvaluation fake_eval(std::uint64_t seed = 5) {
  calib::StagedEvaluation eval;
  eval.records.resize(kStages);
  Rng rng(seed);
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

/// `n` random inputs shaped for tiny_model_config.
inline std::vector<tensor::Tensor> make_inputs(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<tensor::Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    inputs.push_back(tensor::Tensor::randn({2, 8, 8}, rng));
  return inputs;
}

/// make_inputs as default-class requests.
inline std::vector<serving::InferenceRequest> make_requests(std::size_t n,
                                                            std::uint64_t seed = 3) {
  std::vector<serving::InferenceRequest> requests;
  requests.reserve(n);
  for (tensor::Tensor& input : make_inputs(n, seed))
    requests.push_back({std::move(input), 0});
  return requests;
}

/// A fresh (differently seeded) architecture for restore: all weights must
/// come from the snapshot, not the initializer.
inline serving::ModelFactory tiny_factory(std::uint64_t seed = 99) {
  return [seed](const std::string&) {
    return nn::build_staged_resnet(tiny_model_config(seed));
  };
}

/// A serve-ready entry, built off to the side: the tiny model (`seed`), its
/// curves fitted on fake_eval(seed + 4), and `stage_ms` as its stage costs.
inline std::shared_ptr<serving::ModelEntry> make_serving_entry(
    const std::string& name, std::uint64_t seed = 1,
    std::vector<double> stage_ms = {1.0, 1.0}) {
  auto entry = std::make_shared<serving::ModelEntry>(
      name, nn::build_staged_resnet(tiny_model_config(seed)));
  entry->curves.fit(fake_eval(seed + 4));
  entry->stage_ms = std::move(stage_ms);
  return entry;
}

/// make_serving_entry plus what calibration sets — α and the calibrated
/// flag — without the expense of real training.
inline std::shared_ptr<serving::ModelEntry> make_calibrated_entry(
    const std::string& name, std::uint64_t seed = 1) {
  auto entry = make_serving_entry(name, seed, {1.0 + static_cast<double>(seed), 2.0});
  entry->calibration_alpha = {0.4, 0.6};
  entry->calibrated = true;
  return entry;
}

/// Publishes make_calibrated_entry(name, seed); returns its handle.
inline std::size_t add_calibrated_model(serving::ModelRegistry& registry,
                                        const std::string& name, std::uint64_t seed = 1) {
  return registry.add_entry(make_calibrated_entry(name, seed));
}

/// A published serve-ready entry for server tests. It holds the view it
/// hands the entry out of, so the entry stays alive and unchanged whatever
/// the registry publishes later.
struct ServerHarness {
  serving::ModelRegistry registry;
  std::size_t handle = registry.add_entry(make_serving_entry("tiny"));
  serving::ModelRegistry::ViewPtr view = registry.pin();

  const serving::ModelEntry& entry() const { return view->entry(handle); }
};

}  // namespace eugene
