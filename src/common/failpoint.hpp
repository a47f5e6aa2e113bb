// Deterministic fault injection.
//
// A *failpoint* is a named program site where tests (or an operator, via the
// EUGENE_FAILPOINTS environment variable) can inject a failure: an exception
// that simulates a crash, or a delay that simulates a stall. Sites are
// declared inline on the code path they perturb:
//
//   EUGENE_FAILPOINT("serving.stage.crash");  // may throw FailpointError
//
// and armed from a test:
//
//   FailpointSpec spec;
//   spec.kind = FailpointKind::kError;
//   spec.probability = 0.25;                 // seeded, deterministic draws
//   spec.max_fires = 3;                      // auto-disarm budget
//   FailpointRegistry::instance().arm("serving.stage.crash", spec);
//
// Cost model: when *no* failpoint is armed anywhere in the process, a site is
// one relaxed atomic load and a predicted-not-taken branch (< 1 ns; see
// BM_FailpointDisabled in bench_micro.cpp) — cheap enough for stage-level hot
// paths. The registry lock is only touched once something is armed.
//
// Environment arming (used by CI's chaos job): EUGENE_FAILPOINTS holds a
// comma-separated list of `name=kind[:p=<prob>][:count=<n>][:ms=<delay>]
// [:seed=<s>]` clauses, e.g.
//
//   EUGENE_FAILPOINTS='serving.stage.crash=error:p=0.05:seed=11,io.atomic.torn=error:count=2'
//
// The registry arms itself from the environment the first time instance() is
// called, so any binary becomes a chaos harness without code changes.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"

namespace eugene {

/// Thrown by an armed kError failpoint: the simulated fault.
class FailpointError : public Error {
 public:
  explicit FailpointError(const std::string& what) : Error(what) {}
};

/// What an armed failpoint does when it fires.
enum class FailpointKind {
  kError,  ///< throw FailpointError at the site
  kDelay,  ///< sleep for delay_ms at the site (simulates a stalled worker)
};

/// How an armed failpoint decides to fire.
struct FailpointSpec {
  FailpointKind kind = FailpointKind::kError;
  double probability = 1.0;     ///< chance each evaluation fires (seeded draw)
  std::int64_t max_fires = -1;  ///< total fires before going dormant (-1 = ∞)
  double delay_ms = 0.0;        ///< kDelay only: stall duration
  std::uint64_t seed = 42;      ///< per-failpoint RNG seed (determinism)
};

namespace detail {
/// Process-wide count of armed failpoints. The EUGENE_FAILPOINT macro reads
/// this (relaxed) to keep disabled sites branch-only.
inline std::atomic<int> g_failpoints_armed{0};
}  // namespace detail

/// Process-wide registry of armed failpoints. Thread-safe: workers evaluate
/// sites concurrently while a test arms and disarms.
class FailpointRegistry {
 public:
  /// The singleton. First call arms any EUGENE_FAILPOINTS environment spec.
  static FailpointRegistry& instance();

  /// True iff any failpoint is armed (the macro's fast-path guard).
  static bool any_armed() {
    return detail::g_failpoints_armed.load(std::memory_order_relaxed) != 0;
  }

  /// Arms (or re-arms, resetting counters) the named failpoint.
  void arm(const std::string& name, FailpointSpec spec) EUGENE_EXCLUDES(mutex_);

  /// Disarms one failpoint; unknown names are a no-op.
  void disarm(const std::string& name) EUGENE_EXCLUDES(mutex_);

  /// Disarms everything (test isolation; guards use this in SetUp/TearDown).
  void disarm_all() EUGENE_EXCLUDES(mutex_);

  /// Number of currently armed failpoints.
  std::size_t armed() const EUGENE_EXCLUDES(mutex_);

  /// Times the named failpoint has fired since it was last armed (0 if never
  /// armed). Chaos tests reconcile injected-fault counts against this.
  std::size_t fires(const std::string& name) const EUGENE_EXCLUDES(mutex_);

  /// Parses and arms a `name=kind[:p=..][:count=..][:ms=..][:seed=..],...`
  /// spec string; returns the number of failpoints armed. Throws
  /// InvalidArgument on malformed clauses.
  std::size_t arm_from_string(const std::string& spec) EUGENE_EXCLUDES(mutex_);

  /// Arms from the given environment variable if set; returns count armed.
  std::size_t arm_from_env(const char* var = "EUGENE_FAILPOINTS")
      EUGENE_EXCLUDES(mutex_);

  /// Site evaluation: fires the armed action (throw or sleep) when the draw
  /// says so. Called via EUGENE_FAILPOINT, never directly.
  void evaluate(const char* name) EUGENE_EXCLUDES(mutex_);

  /// Boolean site evaluation for custom fault actions (e.g. atomic_write_file
  /// committing a corrupted file). Counts as a fire when it returns true.
  bool should_fire(const char* name) EUGENE_EXCLUDES(mutex_);

 private:
  struct Armed {
    std::string name;
    FailpointSpec spec;
    std::size_t fires = 0;
    Rng rng{42};
  };

  FailpointRegistry() = default;

  Armed* find_locked(const char* name) EUGENE_REQUIRES(mutex_);
  /// Runs the fire draw; returns the action to take (delay_ms >= 0 means
  /// sleep, kind kError means throw) or false when dormant.
  bool draw_locked(Armed& a) EUGENE_REQUIRES(mutex_);

  // kFailpointRegistry ranks near the leaves: EUGENE_FAILPOINT sites fire
  // inside locked regions (e.g. the usage journal appends under kUsageMeter).
  mutable Mutex mutex_{LockRank::kFailpointRegistry, "FailpointRegistry::mutex_"};
  std::vector<Armed> armed_ EUGENE_GUARDED_BY(mutex_);
};

}  // namespace eugene

// A failpoint site. Disabled (nothing armed process-wide): one relaxed load
// + branch. Armed: full registry evaluation, which may throw FailpointError
// or sleep.
#define EUGENE_FAILPOINT(name)                                       \
  do {                                                               \
    if (::eugene::FailpointRegistry::any_armed()) [[unlikely]]       \
      ::eugene::FailpointRegistry::instance().evaluate(name);        \
  } while (false)

// Boolean failpoint site for callers that implement the fault themselves
// (returns true when the failpoint fires; never throws or sleeps).
#define EUGENE_FAILPOINT_FIRED(name)                  \
  (::eugene::FailpointRegistry::any_armed() &&        \
   ::eugene::FailpointRegistry::instance().should_fire(name))
