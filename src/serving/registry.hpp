// Model registry: named, versioned staged models together with the
// artifacts the serving path needs (confidence-curve model, profiled stage
// times, chosen calibration α) — published by *epoch* (DESIGN.md §13).
//
// Readers never take the writer mutex. The full model set lives in an
// immutable View swapped atomically: pin() is one spin-bit-protected
// shared_ptr copy (see ViewSlot below for why not std::atomic<shared_ptr>),
// and everything
// reached through the returned view — entry table, names, curves, costs —
// stays valid and unchanging for as long as the caller holds it, no matter
// how many snapshots, restores, reloads, or swaps writers publish meanwhile.
// Writers serialize on one mutex, build the next epoch off to the side
// (copy-on-write: untouched entries are shared between epochs, mutated
// entries are deep-cloned first), and publish with a single atomic store.
//
// The concurrency contract: everything reached through a view — weights,
// curves, costs, α — is immutable once published; mutating it is a bug, and
// update()/replace() exist so writers never need to. Inference is const
// (StagedModel::run_stage writes nothing but the calling thread's scratch
// arena), so any number of threads may serve one published entry at once,
// and writers may clone an entry while it serves.
#pragma once

#include <atomic>
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
  std::shared_ptr<ModelEntry> clone() const;
};

/// Epoch-published registry; handles are stable dense indices that survive
/// every mutation (replace/update/reload keep an entry's handle; add appends).
class ModelRegistry {
 public:
  /// One immutable published epoch of the full model set.
  class View {
   public:
    std::size_t size() const { return entries_.size(); }

    /// Entry lookup. The entry is frozen (see the header comment); the
    /// reference is non-const only because save_snapshot reads the weights
    /// through StagedModel::params(), which returns mutable pointers.
    ModelEntry& entry(std::size_t handle) const {
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
    std::vector<std::shared_ptr<ModelEntry>> entries_;
    std::uint64_t epoch_ = 0;
  };
  using ViewPtr = std::shared_ptr<const View>;

  ModelRegistry();

  /// Atomically pins the current epoch: one spin-bit acquire plus a refcount
  /// bump, never the writer mutex. Hold the returned view for the duration
  /// of a request (or a snapshot) and every read through it is coherent — a
  /// full model set from a single instant.
  ViewPtr pin() const { return view_.load(); }

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

  // -- compatibility accessors (one pin each) ----------------------------
  std::size_t size() const { return pin()->size(); }
  /// Entry of the *current* epoch. Valid until this handle is next replaced;
  /// prefer pin() when reading more than one thing coherently.
  ModelEntry& entry(std::size_t handle) { return pin()->entry(handle); }
  const ModelEntry& entry(std::size_t handle) const { return pin()->entry(handle); }
  std::optional<std::size_t> find(const std::string& name) const {
    return pin()->find(name);
  }
  std::uint64_t epoch() const { return pin()->epoch(); }

 private:
  /// The published-view slot: a shared_ptr behind a single-word spin bit
  /// with acquire on lock and release on unlock — on BOTH the reader and
  /// writer paths. libstdc++ 12's std::atomic<shared_ptr> releases the
  /// reader-side bit with a *relaxed* RMW (bits/shared_ptr_atomic.h:
  /// load() ends in unlock(memory_order_relaxed)), which leaves no
  /// happens-before edge from a reader's pointer read to the next writer's
  /// pointer swap — formally a data race, and ThreadSanitizer reports it as
  /// one under the lifecycle chaos suite. This slot is the same protocol
  /// with the ordering fixed; the critical section is one shared_ptr copy
  /// or swap (a refcount RMW), a few nanoseconds either way
  /// (BM_RegistryEpochRead).
  class ViewSlot {
   public:
    ViewPtr load() const {
      lock();
      ViewPtr copy = ptr_;
      unlock();
      return copy;
    }
    void store(ViewPtr next) {
      lock();
      ptr_.swap(next);
      unlock();
      // `next` now holds the displaced view: the old epoch's refcount drop
      // (and possible destruction) happens outside the spin bit.
    }

   private:
    void lock() const {
      std::uint32_t expected = 0;
      while (!locked_.compare_exchange_weak(expected, 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
        expected = 0;
    }
    void unlock() const { locked_.store(0, std::memory_order_release); }

    mutable std::atomic<std::uint32_t> locked_{0};
    ViewPtr ptr_;  // guarded by locked_
  };

  /// Stamps the next epoch number and atomically publishes `next`. The
  /// `registry.swap.stall` seam fires first: an error kind aborts the
  /// publication with the old epoch fully intact (the half-built view is
  /// simply dropped), a delay kind widens the build-to-publish window.
  void publish_locked(std::shared_ptr<View> next) EUGENE_REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kModelRegistry, "ModelRegistry::mutex_"};
  ViewSlot view_;
  std::uint64_t epoch_version_ EUGENE_GUARDED_BY(mutex_) = 0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace eugene::serving
