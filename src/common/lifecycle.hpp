// Server lifecycle state machine (DESIGN.md §13 "Zero-downtime lifecycle").
//
// A serving process moves through exactly four states:
//
//   Starting ──first admission──▶ Serving ──begin_drain()──▶ Draining
//                                    │                           │
//                                    └────────set_stopped()──────┴──▶ Stopped
//
// The machine is the *single* authority on whether new work may enter the
// process: the admission path (serving::InferenceServer::process_batch,
// through sched::Engine::admit) calls try_admit() before accepting a batch
// and finish() once the batch's responses have been emitted. It is the
// server's only admission decision; overload is left to the scheduler. Draining therefore
// means "reject new admissions with a typed drain response, let the in-flight
// count fall to zero" — nothing in flight is ever dropped by the drain
// itself; the bounded wait in begin_drain() only limits how long we wait for
// stragglers before reporting them abandoned.
//
// Concurrency: one mutex (LockRank::kLifecycle) guards the state + in-flight
// count; a condition variable wakes the drainer whenever the count reaches
// zero. try_admit()/finish() are a lock, a branch, and a counter update —
// cheap enough for every request. Nothing nests inside the lifecycle mutex
// (the `lifecycle.drain.hang` failpoint deliberately fires *outside* it).
#pragma once

#include <cstdint>

#include "common/thread_annotations.hpp"

namespace eugene::telemetry {
class Gauge;
}  // namespace eugene::telemetry

namespace eugene {

/// Lifecycle states, in the only order they can be visited.
enum class ServerState : std::uint8_t {
  kStarting = 0,  ///< constructed, no request admitted yet
  kServing = 1,   ///< live traffic
  kDraining = 2,  ///< rejecting admissions, waiting for in-flight work
  kStopped = 3,   ///< terminal; nothing runs, journal flushed
};

/// Stable lower-case name ("starting", "serving", "draining", "stopped").
const char* server_state_name(ServerState state);

/// What begin_drain() observed and achieved.
struct DrainReport {
  bool completed = false;            ///< in-flight count reached zero in time
  double duration_ms = 0.0;          ///< wall time spent draining
  std::size_t inflight_at_begin = 0; ///< tasks in flight when the drain started
  std::size_t inflight_abandoned = 0;///< tasks still running at timeout (never
                                     ///< cancelled — they just outlived the wait)
};

/// The state machine. One instance per serving process, shared by pointer
/// through ServerConfig::lifecycle; a null pointer there means "always
/// admit", preserving standalone construction in tests and benches.
class ServerLifecycle {
 public:
  /// `state_gauge`, when set, reads the current ServerState from
  /// construction on: every transition stores it there (an atomic store —
  /// no registry lookup on the admission path).
  explicit ServerLifecycle(telemetry::Gauge* state_gauge = nullptr);
  ServerLifecycle(const ServerLifecycle&) = delete;
  ServerLifecycle& operator=(const ServerLifecycle&) = delete;

  /// Attempts to admit `units` units of new work (a batch admits its size in
  /// one call). Returns true and increments the in-flight count in Starting
  /// (auto-promoting to Serving — the first admission is what marks the
  /// process live) and Serving; returns false without side effects in
  /// Draining and Stopped. Every true return must be paired with exactly one
  /// finish() of the same unit count.
  bool try_admit(std::size_t units = 1) EUGENE_EXCLUDES(mutex_);

  /// Marks `units` units of admitted work complete and wakes the drainer
  /// when the in-flight count reaches zero.
  void finish(std::size_t units = 1) EUGENE_EXCLUDES(mutex_);

  /// Explicitly promotes Starting → Serving (admissions do this implicitly;
  /// daemons call it once wiring is done so metrics show "serving" before
  /// the first request). No-op in any other state.
  void set_serving() EUGENE_EXCLUDES(mutex_);

  /// Rejects new admissions and waits (bounded by `timeout_ms`) for the
  /// in-flight count to reach zero. Legal from Starting, Serving, or
  /// Draining (re-entry continues waiting on the same drain); returns an
  /// already-completed report in Stopped. Does NOT transition to Stopped —
  /// the caller flushes journals / writes the final snapshot between
  /// begin_drain() and set_stopped() (core::EugeneService::begin_drain
  /// sequences all three).
  DrainReport begin_drain(double timeout_ms) EUGENE_EXCLUDES(mutex_);

  /// Terminal transition; legal from any state. Idempotent.
  void set_stopped() EUGENE_EXCLUDES(mutex_);

  ServerState state() const EUGENE_EXCLUDES(mutex_);
  std::size_t inflight() const EUGENE_EXCLUDES(mutex_);

 private:
  void set_state(ServerState state) EUGENE_REQUIRES(mutex_);

  telemetry::Gauge* const state_gauge_;
  mutable Mutex mutex_{LockRank::kLifecycle, "ServerLifecycle::mutex_"};
  CondVar drained_cv_;
  ServerState state_ EUGENE_GUARDED_BY(mutex_) = ServerState::kStarting;
  std::size_t inflight_ EUGENE_GUARDED_BY(mutex_) = 0;
};

}  // namespace eugene
