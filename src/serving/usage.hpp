// Usage metering for service pricing (paper §V future work):
//
//   "An appropriate pricing structure may be needed that is informed of the
//    true resource cost imposed by clients of each class on the service."
//
// UsageMeter accumulates, per service class, the true resource consumption
// of a batch: stage executions, compute milliseconds (from the model's
// profiled stage costs), expirations, and early exits — and turns them into
// an itemized cost report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sched/task.hpp"
#include "serving/server.hpp"

namespace eugene::serving {

/// Accumulated per-class resource usage. The shed/retries/expired trio is
/// the per-class fault ledger (DESIGN.md §8): chaos tests reconcile these
/// against injected fault counts.
struct ClassUsage {
  std::string class_name;
  std::size_t requests = 0;
  std::size_t stages_executed = 0;
  double compute_ms = 0.0;   ///< Σ profiled stage costs actually spent
  std::size_t expired = 0;
  std::size_t early_exits = 0;
  std::size_t shed = 0;      ///< degraded responses (retry budget spent or
                             ///< input rejected)
  std::size_t retries = 0;   ///< stage re-executions consumed by faults
  std::size_t brownout_sheds = 0;  ///< journal v2 column; 0 for every batch
                                   ///< served now that nothing sheds

  double mean_stages() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stages_executed) /
                               static_cast<double>(requests);
  }
};

/// Pricing knobs: cost per compute millisecond and per request admitted.
struct PricingPolicy {
  double per_compute_ms = 0.01;
  double per_request = 0.05;
};

/// Service-wide (not per-class) overload-control counters. Journaled as the
/// trailing ops block of v2 frames; see record_ops().
struct OpsUsage {
  std::size_t hedges_issued = 0;  ///< backup dispatches sent
  std::size_t hedges_won = 0;     ///< hedge races the backup won
  std::size_t breaker_trips = 0;  ///< circuit-breaker transitions to open
};

/// Outcome of replaying a usage journal (DESIGN.md §9): how many batch
/// frames were applied, and whether the file ended in a torn tail (the
/// normal signature of a crash mid-append — replay stops there, keeping
/// every fully committed frame).
struct JournalReplay {
  std::size_t frames = 0;
  bool truncated = false;
};

/// Meters batches against a model's profiled stage costs. Thread-safe: many
/// serving threads may record() batches concurrently while a billing thread
/// reads usage() or charge().
///
/// Durability: open_journal() attaches an append-only, CRC-framed journal;
/// each record() call appends one delta frame and fsyncs it, so committed
/// frames survive power loss — not just kill -9 — and a fresh meter rebuilds
/// the billing ledger with replay_journal(). Reopening an existing journal
/// truncates any torn tail left by a crash mid-append, so the recovery cycle
/// (replay, reopen, record) can repeat across any number of crashes.
/// Failpoint seam: usage.journal.torn cuts a frame short mid-append.
///
/// Journal versioning: v1 frames carry the original 7-field class rows; v2
/// (current) rows add brownout_sheds (0 for every batch served today) and
/// every v2 frame ends in an ops block (hedges, breaker trips; nothing
/// in-tree produces them any more). The reader accepts both. The *writer* is gated
/// on the attached file's header version: appends to an existing v1 journal
/// stay v1-encoded (mixed-version files would be unreadable to old readers),
/// which means brownout_sheds and ops deltas are not durable on a v1 file —
/// they are accumulated in memory only and dropped from the encoded frame.
class UsageMeter {
 public:
  /// `costs` is the model's profiled per-stage execution time; `classes`
  /// names the service classes (parallel to ServerConfig::classes).
  UsageMeter(sched::StageCostModel costs, std::vector<std::string> class_names);

  ~UsageMeter();
  UsageMeter(const UsageMeter&) = delete;
  UsageMeter& operator=(const UsageMeter&) = delete;

  /// Records one processed batch.
  void record(const std::vector<InferenceRequest>& requests,
              const std::vector<InferenceResponse>& responses,
              std::size_t model_num_stages) EUGENE_EXCLUDES(mutex_);

  /// Records a delta of service-wide overload-control counters. Journaled
  /// as a class-less v2 frame when a v2 journal is attached; accumulated in
  /// memory only on a v1 journal. Nothing in-tree produces these counters
  /// any more (the worker pool has no hedging or breakers); the ops block
  /// stays because it is part of the durable v2 format, and is decided
  /// together with the v1 writer (ROADMAP leftovers).
  void record_ops(const OpsUsage& delta) EUGENE_EXCLUDES(mutex_);

  /// Snapshot of the service-wide overload-control counters.
  OpsUsage ops() const EUGENE_EXCLUDES(mutex_);

  /// Attaches the append-only journal at `path` (created with a versioned
  /// header if new). An existing journal is scanned first and truncated to
  /// its last committed frame, so appends after a crash mid-append land on a
  /// clean frame boundary instead of after torn garbage. Throws IoError when
  /// the file cannot be opened or truncated, CorruptionError when it is not
  /// a journal (bad magic, future version, mid-file damage).
  void open_journal(const std::string& path) EUGENE_EXCLUDES(mutex_);

  /// Flushes and detaches the journal (drain path: every committed frame is
  /// already fsynced, so this only closes the fd). Idempotent; record() calls
  /// after close accumulate in memory only. Throws IoError when the final
  /// fsync fails — the fd is detached either way.
  void close_journal() EUGENE_EXCLUDES(mutex_);

  /// Replays a journal written by open_journal()/record() into the
  /// accumulators. Stops cleanly at a torn tail frame (crash mid-append);
  /// throws CorruptionError when the file is not a journal, has a future
  /// version, or a committed frame is semantically invalid. A missing file
  /// replays zero frames.
  JournalReplay replay_journal(const std::string& path) EUGENE_EXCLUDES(mutex_);

  /// Byte-level core of replay_journal: replays a journal *image* (the raw
  /// bytes of a journal file) into the accumulators. Exposed so the fuzz
  /// harness (fuzz/fuzz_usage_journal.cpp) can drive the exact production
  /// decode path with arbitrary bytes — the contract is success, a truncated
  /// flag, or CorruptionError, never UB. `what` names the source in errors.
  JournalReplay replay_journal_image(const std::vector<std::uint8_t>& bytes,
                                     const std::string& what)
      EUGENE_EXCLUDES(mutex_);

  /// Consistent snapshot of the per-class accumulators.
  std::vector<ClassUsage> usage() const EUGENE_EXCLUDES(mutex_);

  /// Itemized charge for one class under a pricing policy.
  double charge(std::size_t service_class, const PricingPolicy& pricing) const
      EUGENE_EXCLUDES(mutex_);

  /// Total charge across classes.
  double total_charge(const PricingPolicy& pricing) const
      EUGENE_EXCLUDES(mutex_);

 private:
  double charge_locked(std::size_t service_class,
                       const PricingPolicy& pricing) const
      EUGENE_REQUIRES(mutex_);

  void append_frame_locked(const std::vector<ClassUsage>& delta,
                           const OpsUsage& ops_delta) EUGENE_REQUIRES(mutex_);

  sched::StageCostModel costs_;  ///< immutable after construction
  const std::size_t num_classes_;  ///< usage_.size(), readable unlocked
  mutable Mutex mutex_{LockRank::kUsageMeter, "UsageMeter::mutex_"};
  std::vector<ClassUsage> usage_ EUGENE_GUARDED_BY(mutex_);
  OpsUsage ops_ EUGENE_GUARDED_BY(mutex_);
  int journal_fd_ EUGENE_GUARDED_BY(mutex_) = -1;  ///< -1 when detached
  /// Header version of the attached journal file; frames append in this
  /// version so a file never mixes encodings.
  std::uint32_t journal_version_ EUGENE_GUARDED_BY(mutex_) = 0;
};

}  // namespace eugene::serving
