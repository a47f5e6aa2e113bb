// Lock-rank deadlock-order analysis (DESIGN.md §10 "Analysis & verification").
//
// TSan proves the *absence of data races it observed*; it cannot prove the
// absence of lock-order inversions that never interleaved in a test run. This
// header makes deadlock-freedom a checked property instead of test-suite
// luck: every eugene::Mutex carries a static *rank* from the registry below,
// and debug builds maintain a per-thread set of held locks, enforcing that
// ranks are acquired in strictly increasing order. Any A→B / B→A inversion is
// caught the first time either side executes — on any schedule, under any
// sanitizer, in any single-threaded test — because the check needs only one
// thread to walk one side of the cycle.
//
// The rank registry (keep sorted by rank; scripts/check_invariants.py
// enforces that every Mutex construction in src/ names one of these):
//
//   rank   domain              acquired while holding
//   ----   ------------------  -------------------------------------------
//    100   kModelRegistry      nothing (outermost serving-path lock)
//    110   kRegistryView       nothing (pin() copies the published view
//                              pointer); a publish swaps that pointer
//                              under kModelRegistry
//    150   kLifecycle          nothing (admission gate + drain wait; may be
//                              taken before any serving-path lock, so it
//                              sits between the registry writer lock and
//                              the usage meter)
//    200   kUsageMeter         nothing today; may nest under the registry
//    300   kEngine             nothing (one process_batch call's
//                              sched::Engine, shared by its peer workers;
//                              span events and EUGENE_LOG fire under it)
//    340   kTrace              nothing (telemetry ring buffer; recording a
//                              span event is legal under any subsystem lock
//                              ranked below)
//    350   kMetrics            nothing (instrument registration/snapshot;
//                              instrument *updates* are lock-free atomics)
//    900   kFailpointRegistry  any subsystem lock — EUGENE_FAILPOINT sites
//                              fire inside locked regions (e.g. the usage
//                              journal appends under kUsageMeter)
//   1000   kLogging            anything — EUGENE_LOG is legal everywhere,
//                              so the emit lock is the unique leaf
//
// Cost model: with EUGENE_LOCK_RANK_CHECKS=0 (the Release preset) the
// checker compiles away entirely — eugene::Mutex::lock() is std::mutex::lock()
// and the rank/name constructor arguments are discarded; BM_MutexRankedLock
// in bench_micro.cpp pins this at parity with a raw std::mutex. With checks
// on (all non-Release builds, including tier-1's default RelWithDebInfo and
// the asan-ubsan/tsan presets) each acquire/release is a thread-local vector
// push/pop plus one rank comparison.
//
// On violation the checker reports both sides: the full held-lock stack of
// the current thread (each entry with the file:line that acquired it) and
// the offending acquisition site, then aborts — unless a test installed a
// capture handler via set_violation_handler().
#pragma once

#include <cstdint>
#include <source_location>
#include <string>

namespace eugene {

/// The static rank registry: a total order over every mutex domain in src/.
/// A thread may acquire a mutex only while every mutex it already holds has
/// a strictly lower rank (monotone acquisition ⇒ the wait-for graph is
/// acyclic ⇒ no deadlock). New domains must be inserted here with a comment
/// saying what they may be held under.
enum class LockRank : std::uint16_t {
  kModelRegistry = 100,     ///< serving/registry.hpp — writer mutex
  kRegistryView = 110,      ///< serving/registry.hpp — the published view
                            ///< pointer; held for one shared_ptr copy/swap
  kLifecycle = 150,         ///< common/lifecycle.hpp — server state machine +
                            ///< in-flight count; nothing nests inside it
  kUsageMeter = 200,        ///< serving/usage.hpp — accumulators + journal fd
  kEngine = 300,            ///< serving/server.cpp — a call's sched::Engine;
                            ///< trace + logging fire under it
  kTrace = 340,             ///< common/trace.hpp — span-event ring buffer;
                            ///< nothing nests inside it
  kMetrics = 350,           ///< common/metrics.hpp — instrument table; updates
                            ///< are lock-free, only registration/snapshot lock
  kFailpointRegistry = 900, ///< common/failpoint.hpp — evaluated under locks
  kLogging = 1000,          ///< common/logging.cpp — the leaf: legal anywhere
};

/// Human-readable name of a registered rank ("kEngine"), or "?" for a value
/// outside the registry (tests may mint ad-hoc ranks).
const char* lock_rank_name(LockRank rank);

namespace lock_rank {

/// Receives the formatted violation report instead of the default
/// stderr-print-then-abort. Install from tests to assert on report contents.
using ViolationHandler = void (*)(const std::string& report);

/// Installs `handler` (nullptr restores the default abort behavior) and
/// returns the previous handler.
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Records that the current thread acquired `mutex` with `rank`. Fires the
/// violation handler when `rank` is not strictly greater than every rank the
/// thread already holds. Called by eugene::Mutex, never directly.
void note_acquire(std::uint16_t rank, const char* name, const void* mutex,
                  std::source_location loc);

/// Records a successful try_lock. Tracked but *not* rank-enforced: a
/// non-blocking acquisition cannot participate in a deadlock cycle, and
/// try-then-back-off is the sanctioned escape hatch for genuinely
/// order-free designs.
void note_acquire_nonblocking(std::uint16_t rank, const char* name,
                              const void* mutex, std::source_location loc);

/// Records that the current thread released `mutex` (any order, not just
/// LIFO — guards may outlive each other arbitrarily).
void note_release(const void* mutex);

/// Number of locks the current thread holds (test introspection).
std::size_t held_count();

}  // namespace lock_rank
}  // namespace eugene
