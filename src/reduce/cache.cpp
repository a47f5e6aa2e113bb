#include "reduce/cache.hpp"

#include <algorithm>
#include <numeric>

#include "common/stats.hpp"

namespace eugene::reduce {

using tensor::Tensor;

// ---------------------------------------------------------- FrequencyTracker

FrequencyTracker::FrequencyTracker(std::size_t window_size) : window_size_(window_size) {
  EUGENE_REQUIRE(window_size > 0, "FrequencyTracker: zero window");
}

void FrequencyTracker::observe(std::size_t label) {
  if (label >= counts_.size()) counts_.resize(label + 1, 0);
  window_.push_back(label);
  ++counts_[label];
  if (window_.size() > window_size_) {
    --counts_[window_.front()];
    window_.pop_front();
  }
}

std::vector<std::size_t> FrequencyTracker::frequent_set(double coverage) const {
  EUGENE_REQUIRE(coverage > 0.0 && coverage <= 1.0,
                 "frequent_set: coverage outside (0,1]");
  if (window_.empty()) return {};
  std::vector<std::size_t> order(counts_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return counts_[a] > counts_[b]; });
  std::vector<std::size_t> result;
  std::size_t covered = 0;
  const std::size_t needed =
      static_cast<std::size_t>(std::ceil(coverage * static_cast<double>(window_.size())));
  for (std::size_t label : order) {
    if (counts_[label] == 0) break;
    result.push_back(label);
    covered += counts_[label];
    if (covered >= needed) break;
  }
  return result;
}

double FrequencyTracker::share(std::size_t label) const {
  if (window_.empty() || label >= counts_.size()) return 0.0;
  return static_cast<double>(counts_[label]) / static_cast<double>(window_.size());
}

// ---------------------------------------------------------- build_cache_model

CacheModel build_cache_model(const data::Dataset& train_set,
                             const std::vector<std::size_t>& frequent_classes,
                             const CacheBuildConfig& config, Rng& rng) {
  EUGENE_REQUIRE(!frequent_classes.empty(), "build_cache_model: empty frequent set");
  EUGENE_REQUIRE(!train_set.empty(), "build_cache_model: empty training set");

  // Remap labels: frequent class i → i; everything else → OTHER, downsampled
  // so it does not drown the positives.
  const std::size_t other = frequent_classes.size();
  data::Dataset remapped;
  std::size_t frequent_count = 0;
  for (std::size_t i = 0; i < train_set.size(); ++i) {
    const auto it = std::find(frequent_classes.begin(), frequent_classes.end(),
                              train_set.labels[i]);
    if (it != frequent_classes.end()) ++frequent_count;
  }
  const double other_keep_prob = std::min(
      1.0, config.other_downsample * static_cast<double>(frequent_count) /
               std::max<double>(1.0, static_cast<double>(train_set.size() - frequent_count)));
  for (std::size_t i = 0; i < train_set.size(); ++i) {
    const auto it = std::find(frequent_classes.begin(), frequent_classes.end(),
                              train_set.labels[i]);
    if (it != frequent_classes.end()) {
      remapped.push(train_set.samples[i],
                    static_cast<std::size_t>(it - frequent_classes.begin()),
                    train_set.difficulty[i]);
    } else if (rng.bernoulli(other_keep_prob)) {
      remapped.push(train_set.samples[i], other, train_set.difficulty[i]);
    }
  }
  EUGENE_REQUIRE(!remapped.empty(), "build_cache_model: remapped set is empty");

  SimpleCnnConfig arch = config.architecture;
  arch.num_classes = other + 1;
  CacheModel cache{SimpleCnn(arch), frequent_classes, other};
  nn::train_classifier(cache.model.net(), remapped.samples, remapped.labels,
                       config.training);
  return cache;
}

// ------------------------------------------------------ CachedInferenceService

CachedInferenceService::CachedInferenceService(CacheModel cache,
                                               const nn::StagedModel& server_model,
                                               double miss_confidence_threshold,
                                               CacheCostModel costs)
    : cache_(std::move(cache)),
      server_(server_model),
      threshold_(miss_confidence_threshold),
      costs_(costs) {
  EUGENE_REQUIRE(threshold_ >= 0.0 && threshold_ <= 1.0,
                 "CachedInferenceService: threshold outside [0,1]");
}

CachedResult CachedInferenceService::infer(const Tensor& input) {
  const Tensor logits = cache_.model.forward(input);
  const std::vector<float> probs = nn::softmax_probs(logits);
  const std::size_t cache_label = argmax(probs);
  const double confidence = probs[cache_label];
  const std::optional<std::size_t> original = cache_.to_original(cache_label);

  CachedResult result;
  if (original.has_value() && confidence >= threshold_) {
    ++hits_;
    result.label = *original;
    result.confidence = confidence;
    result.cache_hit = true;
    result.latency_ms = costs_.device_ms;
    return result;
  }

  // Cache miss: full network execution on the server.
  ++misses_;
  const auto outputs = server_.forward_all(input);
  const nn::StageOutput& final = outputs.back();
  result.label = final.predicted_label;
  result.confidence = final.confidence;
  result.cache_hit = false;
  result.latency_ms = costs_.device_ms + costs_.network_ms + costs_.server_ms;
  return result;
}

double CachedInferenceService::hit_rate() const {
  const std::size_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

// -------------------------------------------------------------- CacheController

CacheController::CacheController(std::size_t num_classes, Config config)
    : config_(config), tracker_(config.decision_window * 4) {
  EUGENE_REQUIRE(num_classes >= 2, "CacheController: need at least two classes");
  EUGENE_REQUIRE(config_.max_cache_classes >= 1, "CacheController: zero cache classes");
}

std::vector<std::size_t> CacheController::recommended_classes() const {
  std::vector<std::size_t> set = tracker_.frequent_set(config_.coverage);
  if (set.size() > config_.max_cache_classes) set.resize(config_.max_cache_classes);
  return set;
}

namespace {

/// Order-insensitive class-set equality: the frequent set is ranked by
/// traffic share, and two classes swapping rank is not a reason to rebuild.
bool same_class_set(std::vector<std::size_t> a, std::vector<std::size_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

CacheController::Action CacheController::observe(std::size_t label,
                                                 std::optional<bool> cache_hit) {
  tracker_.observe(label);
  if (cache_hit.has_value()) {
    recent_hits_.push_back(*cache_hit);
    if (recent_hits_.size() > config_.decision_window) recent_hits_.pop_front();
  }
  if (++since_decision_ < config_.decision_window) return Action::None;
  since_decision_ = 0;

  const std::vector<std::size_t> recommended = recommended_classes();
  if (!cache_active_) {
    if (!recommended.empty() &&
        tracker_.observations() >= config_.decision_window) {
      built_classes_ = recommended;
      return Action::Build;
    }
    return Action::None;
  }

  // Active cache: check health.
  if (recent_hits_.size() >= config_.decision_window / 2) {
    std::size_t hits = 0;
    for (bool h : recent_hits_) hits += h ? 1 : 0;
    const double rate = static_cast<double>(hits) /
                        static_cast<double>(recent_hits_.size());
    if (rate < config_.min_hit_rate) {
      // Either the traffic moved to a new frequent set (rebuild) or it has
      // no stable frequent set any more (drop).
      if (!recommended.empty() && !same_class_set(recommended, built_classes_)) {
        built_classes_ = recommended;
        return Action::Rebuild;
      }
      return Action::Drop;
    }
  }
  if (!recommended.empty() && !same_class_set(recommended, built_classes_)) {
    built_classes_ = recommended;
    return Action::Rebuild;
  }
  return Action::None;
}

}  // namespace eugene::reduce
