// EugeneService — the facade over the whole service suite, mapping the
// paper's §II taxonomy onto one object:
//
//   train()        §II-A  train a staged model from client data
//   label()        §II-A  semi-supervised labeling of client data
//   reduce/cache   §II-B  via build_device_cache()
//   profile()      §II-C  execution profiling of the deployed model
//   calibrate()    §II-D  confidence calibration + confidence-curve fitting
//   infer()/batch  §II-E + §III  utility-scheduled run-time inference
//
// Models live in a registry; handles are returned by train().
#pragma once

#include "calib/calibrators.hpp"
#include "common/lifecycle.hpp"
#include "labeling/self_training.hpp"
#include "profile/timing.hpp"
#include "reduce/cache.hpp"
#include "serving/server.hpp"
#include "serving/snapshot.hpp"
#include "serving/usage.hpp"

namespace eugene::core {

/// Outcome of calibrate(): the chosen Eq. 4 α per stage and the per-stage
/// ECE after calibration.
struct CalibrationReport {
  std::vector<double> stage_alpha;
  std::vector<double> stage_ece;
};

/// What begin_drain() should do after in-flight work stops (DESIGN.md §13).
struct DrainOptions {
  double timeout_ms = 5000.0;  ///< bound on waiting for in-flight requests
  /// Non-empty: write a final crash-consistent snapshot here once drained.
  std::string snapshot_dir;
  /// Non-null: flush + detach this meter's usage journal once drained, so a
  /// restart replays a complete billing ledger.
  serving::UsageMeter* usage = nullptr;
};

/// Outcome of the full drain sequence.
struct DrainOutcome {
  DrainReport report;                ///< what the lifecycle machine observed
  std::uint64_t snapshot_epoch = 0;  ///< committed epoch (0: no snapshot asked)
  bool journal_flushed = false;      ///< a usage journal was flushed + closed
};

/// The Eugene deep-intelligence service.
class EugeneService {
 public:
  EugeneService();

  // ---- §II-A: training --------------------------------------------------
  /// Trains a staged ResNet on client data and registers it. Returns the
  /// model handle.
  std::size_t train(const std::string& name, const data::Dataset& train_set,
                    const nn::StagedResNetConfig& architecture,
                    const nn::StagedTrainConfig& training);

  // ---- §II-A: labeling ----------------------------------------------------
  /// Labels an unlabeled pool using a small labeled seed set (self-training
  /// with a disagreement discriminator; see labeling/self_training.hpp).
  data::Dataset label(const data::Dataset& labeled_seed, const data::Dataset& unlabeled,
                      const labeling::SelfTrainingLabeler::ModelFactory& factory,
                      const labeling::SelfTrainingConfig& config,
                      labeling::LabelingReport* report = nullptr);

  // ---- §II-B: model reduction & caching -----------------------------------
  /// Builds a reduced cache model for a device from the traffic's frequent
  /// classes (paper's smart-refrigerator scenario).
  reduce::CacheModel build_device_cache(const data::Dataset& train_set,
                                        const std::vector<std::size_t>& frequent_classes,
                                        const reduce::CacheBuildConfig& config);

  // ---- §II-C: execution profiling -----------------------------------------
  /// Measures the median execution time of each stage of a registered
  /// model, in milliseconds, installs it as ModelEntry::stage_ms (what the
  /// usage meter prices and the simulator replays) and returns it.
  std::vector<double> profile(std::size_t handle, const tensor::Shape& input_shape,
                              const profile::TimingConfig& timing = {});

  // ---- §II-D: calibration / result quality --------------------------------
  /// Entropy-calibrates the model's heads (Eq. 4) on `calib_set`, fits the
  /// GP confidence-curve model, and marks the model serve-ready.
  CalibrationReport calibrate(std::size_t handle, const data::Dataset& calib_set,
                              const calib::EntropyCalibConfig& config = {});

  // ---- §II-E + §III: run-time inference -----------------------------------
  /// Schedules a batch of concurrent requests on the model. The batch pins
  /// one registry epoch for its whole duration, so a concurrent swap or
  /// reload never changes the model mid-request. When `config.trace` is null
  /// the service's own recorder is injected, so every response carries a
  /// span_id resolvable through trace(); when `config.lifecycle` is null the
  /// service's own lifecycle machine gates admission.
  std::vector<serving::InferenceResponse> infer_batch(
      std::size_t handle, const std::vector<serving::InferenceRequest>& requests,
      const serving::ServerConfig& config);

  /// Single-input convenience wrapper (default service class, no deadline).
  serving::InferenceResponse infer(std::size_t handle, const tensor::Tensor& input,
                                   double early_exit_confidence = 0.92);

  // ---- observability (DESIGN.md §12) --------------------------------------
  /// Snapshot of the process-wide metrics registry in the eugene-metrics v1
  /// text format (round-trippable through telemetry::parse_metrics_text).
  std::string metrics_text() const;

  /// The service's trace recorder: spans for every infer()/infer_batch()
  /// call that did not supply its own recorder.
  telemetry::TraceRecorder& trace() { return trace_; }

  // ---- durability (DESIGN.md §9) ------------------------------------------
  /// Snapshots every registered model — weights, confidence curves, stage
  /// costs, calibration α — crash-consistently under `dir`; returns the
  /// committed epoch. Safe under live traffic: the snapshot pins one
  /// registry epoch and reads only immutable published state, so no quiesce
  /// is needed and concurrent infer/profile/calibrate/swap are all fine.
  std::uint64_t snapshot(const std::string& dir);

  /// Warm restart: restores every model from `dir`'s last committed
  /// snapshot (the factory rebuilds each architecture by name), so a fresh
  /// process serves without retraining, recalibrating, or reprofiling.
  /// Returns the number of models restored (0 when no snapshot exists).
  std::size_t restore(const std::string& dir, const serving::ModelFactory& factory);

  // ---- zero-downtime lifecycle (DESIGN.md §13) ----------------------------
  /// Hot reload under live traffic: rebuilds every model in `dir`'s last
  /// committed snapshot off to the side, then publishes them as ONE new
  /// registry epoch (same-named entries keep their handles; new names
  /// append). In-flight requests keep serving their pinned epoch. Records a
  /// kSwap trace event carrying the new epoch. Returns the number of models
  /// published (0 when no snapshot exists).
  std::size_t reload(const std::string& dir, const serving::ModelFactory& factory);

  /// Hot model swap under live traffic: atomically publishes `model` as the
  /// new version behind `handle`. With keep_artifacts (the default) the
  /// entry's curves, stage costs, and calibration α carry over — the new
  /// model must then have the same stage count (retrained weights, same
  /// architecture). Pass keep_artifacts=false for a different architecture
  /// and re-profile/re-calibrate before serving it.
  void swap_model(std::size_t handle, nn::StagedModel model,
                  bool keep_artifacts = true);

  /// Graceful drain (SIGTERM path): rejects new admissions with typed drain
  /// responses, waits (bounded) for in-flight work, flushes the usage
  /// journal, writes the final snapshot, then transitions to Stopped.
  /// Idempotent — a second call finds the machine already stopped and only
  /// re-runs the flush/snapshot steps it was asked for.
  DrainOutcome begin_drain(const DrainOptions& options = {});

  /// The service's lifecycle machine. infer_batch() injects it into every
  /// ServerConfig that does not carry its own, so service-level traffic is
  /// always gated.
  ServerLifecycle& lifecycle() { return lifecycle_; }

  serving::ModelRegistry& registry() { return registry_; }

 private:
  serving::ModelRegistry registry_;
  telemetry::TraceRecorder trace_;
  ServerLifecycle lifecycle_;
};

}  // namespace eugene::core
