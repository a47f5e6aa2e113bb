// Model registry: named, versioned staged models together with the
// artifacts the serving path needs (confidence-curve model, profiled stage
// times, chosen calibration α) — published by *epoch* (DESIGN.md §13).
//
// Readers never take the writer mutex. The full model set lives in an
// immutable View; pin() copies the shared_ptr to the current one under a
// ranked view mutex held only for that copy, and everything reached through
// the returned view — entry table, names, curves, costs — stays valid and
// unchanging for as long as the caller holds it, no matter how many
// snapshots, restores, reloads, or swaps writers publish meanwhile.
// Writers serialize on one mutex, build the next epoch off to the side
// (copy-on-write: untouched entries are shared between epochs, mutated
// entries are deep-cloned first), and publish with one pointer swap.
//
// The concurrency contract: a published entry is const by type — a view
// holds shared_ptr<const ModelEntry> and hands out const references — so
// weights, curves, costs and α cannot change once published; update() and
// replace() are how writers change them. Inference is const
// (StagedModel::run_stage writes nothing but the calling thread's scratch
// arena), so any number of threads may serve one published entry at once,
// and writers may clone an entry while it serves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/staged_model.hpp"

namespace eugene::telemetry {
class MetricsRegistry;
}

namespace eugene::serving {

/// Everything Eugene keeps per deployed model.
struct ModelEntry {
  std::string name;
  nn::StagedModel model;
  gp::ConfidenceCurveModel curves;          ///< fitted after calibration
  std::vector<double> stage_ms;             ///< profiled time per stage (ms)
  std::vector<double> calibration_alpha;    ///< Eq. 4 α chosen per stage
  bool calibrated = false;

  ModelEntry(std::string n, nn::StagedModel m) : name(std::move(n)), model(std::move(m)) {}

  /// Deep copy: clones the model's weights and config (nn::Layer::clone;
  /// inference writes neither, so the original may be serving meanwhile)
  /// and copies the serving artifacts. The basis of every copy-on-write
  /// mutation.
  std::shared_ptr<ModelEntry> clone() const { return with_model(model.clone()); }

  /// A new entry with this entry's name and serving artifacts (curves,
  /// stage times, α, calibrated flag) around `next` — clone() and a hot
  /// swap that keeps the artifacts.
  std::shared_ptr<ModelEntry> with_model(nn::StagedModel next) const;
};

/// Epoch-published registry; handles are stable dense indices that survive
/// every mutation (replace/update/reload keep an entry's handle; add appends).
class ModelRegistry {
 public:
  /// One immutable published epoch of the full model set.
  class View {
   public:
    std::size_t size() const { return entries_.size(); }

    /// Entry lookup; the entry is frozen (see the header comment).
    const ModelEntry& entry(std::size_t handle) const {
      EUGENE_REQUIRE(handle < entries_.size(), "ModelRegistry: bad handle");
      return *entries_[handle];
    }

    std::optional<std::size_t> find(const std::string& name) const {
      for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i]->name == name) return i;
      return std::nullopt;
    }

    /// Monotone publication counter (0 = the empty initial epoch).
    std::uint64_t epoch() const { return epoch_; }

   private:
    friend class ModelRegistry;
    std::vector<std::shared_ptr<const ModelEntry>> entries_;
    std::uint64_t epoch_ = 0;
  };
  using ViewPtr = std::shared_ptr<const View>;

  /// Pins the current epoch: a refcount bump under the view mutex, never
  /// the writer mutex. Hold the returned view for the duration of a request
  /// (or a snapshot) and every read through it is coherent — a full model
  /// set from a single instant.
  ViewPtr pin() const EUGENE_EXCLUDES(view_mutex_) {
    MutexLock lock(view_mutex_);
    return view_;
  }

  /// Registers a model under a unique name; returns its handle.
  std::size_t add(std::string name, nn::StagedModel model) EUGENE_EXCLUDES(mutex_);

  /// Registers a fully-built entry (restore path: construct the entry —
  /// params, artifacts, α — off to the side, then publish it in one step).
  std::size_t add_entry(std::shared_ptr<ModelEntry> entry) EUGENE_EXCLUDES(mutex_);

  /// Copy-on-write mutation: deep-clones the published entry, runs `fn` on
  /// the private clone (free to run stages, fit curves, set α — nothing is
  /// visible yet), then publishes a new epoch with the clone in place.
  /// In-flight readers keep their pinned epoch; `fn` runs under the writer
  /// mutex, so mutations serialize.
  void update(std::size_t handle,
              const std::function<void(ModelEntry&)>& fn) EUGENE_EXCLUDES(mutex_);

  /// Replaces the entry at `handle` with a pre-built one (hot model swap).
  /// The new entry's name must not collide with a *different* handle.
  void replace(std::size_t handle, std::shared_ptr<ModelEntry> entry)
      EUGENE_EXCLUDES(mutex_);

  /// Batch publish for reload: each entry replaces the same-named existing
  /// entry (keeping its handle) or is appended; all changes land in ONE new
  /// epoch, so readers never observe a half-reloaded set.
  void replace_or_add(std::vector<std::shared_ptr<ModelEntry>> entries)
      EUGENE_EXCLUDES(mutex_);

  /// Publication-epoch gauge/counter sink (optional; set once at wiring).
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  // -- value reads of the current epoch (one pin each) --------------------
  std::size_t size() const { return pin()->size(); }
  std::optional<std::size_t> find(const std::string& name) const {
    return pin()->find(name);
  }
  std::uint64_t epoch() const { return pin()->epoch(); }

 private:
  /// Stamps the next epoch number and publishes `next` by swapping it into
  /// view_ (the displaced view is released after the view mutex). The
  /// `registry.swap.stall` seam fires first: an error kind aborts the
  /// publication with the old epoch fully intact (the half-built view is
  /// simply dropped), a delay kind widens the build-to-publish window.
  void publish_locked(std::shared_ptr<View> next) EUGENE_REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kModelRegistry, "ModelRegistry::mutex_"};
  /// Guards only the view_ pointer: readers copy it, a publish swaps it
  /// (under mutex_), so a reader waits behind a pointer swap, never behind
  /// a writer's clone or build.
  mutable Mutex view_mutex_{LockRank::kRegistryView, "ModelRegistry::view_mutex_"};
  ViewPtr view_ EUGENE_GUARDED_BY(view_mutex_) = std::make_shared<View>();  // epoch 0
  std::uint64_t epoch_version_ EUGENE_GUARDED_BY(mutex_) = 0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace eugene::serving
