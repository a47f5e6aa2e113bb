// Intelligent-function caching (paper §II-B):
//
// "Recognizing that the most common classification results point to those
// specific items, Eugene may retrain a neural network with only those items
// as positive examples, compress the result, and download the compressed
// model to the device. ... The identification of an uncommon occurrence is
// viewed as a cache miss that triggers full network execution on the server."
//
// Pieces: a frequency tracker that detects the frequent-class set, a cache
// model builder (reduced network over frequent classes + an OTHER bucket),
// the device-side cached-inference path with server fallback, and a
// controller that decides when to (re)build or drop the cached model.
#pragma once

#include <deque>
#include <optional>

#include "nn/staged_model.hpp"
#include "reduce/pruning.hpp"

namespace eugene::reduce {

/// Sliding-window class-frequency tracker.
class FrequencyTracker {
 public:
  explicit FrequencyTracker(std::size_t window_size);

  void observe(std::size_t label);

  /// Smallest class set whose traffic share reaches `coverage`, most
  /// frequent first. Empty until the window has data.
  std::vector<std::size_t> frequent_set(double coverage) const;

  /// Traffic share of one class in the window.
  double share(std::size_t label) const;

  std::size_t observations() const { return window_.size(); }

 private:
  std::size_t window_size_;
  std::deque<std::size_t> window_;
  std::vector<std::size_t> counts_;
};

/// Reduced model over the frequent classes plus an OTHER bucket.
struct CacheModel {
  SimpleCnn model;
  std::vector<std::size_t> frequent_classes;  ///< cache label i ↔ original class
  std::size_t other_label = 0;                ///< == frequent_classes.size()

  /// Maps a cache-model prediction back to the original label space;
  /// std::nullopt means OTHER (cache miss).
  std::optional<std::size_t> to_original(std::size_t cache_label) const {
    if (cache_label >= frequent_classes.size()) return std::nullopt;
    return frequent_classes[cache_label];
  }
};

/// Cache-model training knobs.
struct CacheBuildConfig {
  SimpleCnnConfig architecture;          ///< num_classes is overwritten
  nn::ClassifierTrainConfig training;
  /// Per-frequent-class share of OTHER-class examples kept in the remapped
  /// training set (too many OTHER samples drown the positives).
  double other_downsample = 1.0;
};

/// Retrains a reduced network on the frequent classes + OTHER.
CacheModel build_cache_model(const data::Dataset& train_set,
                             const std::vector<std::size_t>& frequent_classes,
                             const CacheBuildConfig& config, Rng& rng);

/// Device/server latency split for the cached path.
struct CacheCostModel {
  double device_ms = 5.0;    ///< cache model on the end device
  double network_ms = 40.0;  ///< round trip to the server
  double server_ms = 15.0;   ///< full model on the server
};

/// Outcome of one cached inference.
struct CachedResult {
  std::size_t label = 0;
  double confidence = 0.0;
  bool cache_hit = false;
  double latency_ms = 0.0;  ///< modeled
};

/// Device-side inference with server fallback.
class CachedInferenceService {
 public:
  /// `server_model` must outlive the service.
  CachedInferenceService(CacheModel cache, const nn::StagedModel& server_model,
                         double miss_confidence_threshold, CacheCostModel costs = {});

  /// Runs the cache model; OTHER predictions or confidence below the
  /// threshold fall back to full server execution.
  CachedResult infer(const tensor::Tensor& input);

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  double hit_rate() const;

 private:
  CacheModel cache_;
  const nn::StagedModel& server_;
  double threshold_;
  CacheCostModel costs_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Decides when the cached model should be (re)built or dropped
/// (the paper's open questions, made concrete):
///   * build when the frequent set covers enough traffic;
///   * rebuild when the frequent set drifts;
///   * drop when the hit rate over a recent window falls below a floor.
class CacheController {
 public:
  struct Config {
    double coverage = 0.7;           ///< traffic share the frequent set must reach
    std::size_t max_cache_classes = 4;
    double min_hit_rate = 0.5;       ///< below this, drop the cache
    std::size_t decision_window = 50;  ///< observations between decisions
  };

  explicit CacheController(std::size_t num_classes, Config config);

  enum class Action { None, Build, Rebuild, Drop };

  /// Feed one observed request label (+ whether the cache hit, if present).
  /// Returns the action the service should take now.
  Action observe(std::size_t label, std::optional<bool> cache_hit);

  /// The frequent set the controller currently recommends.
  std::vector<std::size_t> recommended_classes() const;

  void mark_built() { cache_active_ = true; recent_hits_.clear(); }
  void mark_dropped() { cache_active_ = false; recent_hits_.clear(); }

 private:
  Config config_;
  FrequencyTracker tracker_;
  std::deque<bool> recent_hits_;
  std::vector<std::size_t> built_classes_;
  bool cache_active_ = false;
  std::size_t since_decision_ = 0;
};

}  // namespace eugene::reduce
