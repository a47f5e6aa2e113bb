// Clang thread-safety annotations plus an annotated mutex wrapper.
//
// Clang's `-Wthread-safety` analysis statically proves that every access to a
// mutex-protected member happens with the right lock held — but only for
// types carrying the `capability` attribute, which libstdc++'s std::mutex
// does not. This header provides:
//
//   * EUGENE_GUARDED_BY / EUGENE_REQUIRES / EUGENE_EXCLUDES / ... macros that
//     expand to the Clang attributes (and to nothing on GCC/MSVC);
//   * eugene::Mutex — a std::mutex wrapper carrying the capability attribute
//     and a mandatory LockRank (common/lock_rank.hpp); debug builds enforce
//     monotone rank acquisition, turning any lock-order inversion into an
//     immediate abort with both acquisition stacks;
//   * eugene::MutexLock — the RAII guard (a scoped capability);
//   * eugene::CondVar — a condition variable that waits on eugene::Mutex.
//
// Convention (see DESIGN.md "Correctness tooling"): every member field that
// is protected by a mutex is declared `EUGENE_GUARDED_BY(mutex_)`; private
// helpers that assume the lock is held are declared
// `EUGENE_REQUIRES(mutex_)`; public methods that take the lock themselves
// are declared `EUGENE_EXCLUDES(mutex_)` when re-entry would deadlock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>

#include "common/lock_rank.hpp"

// EUGENE_LOCK_RANK_CHECKS gates the runtime deadlock-order checker. The
// build defines it explicitly (see the root CMakeLists.txt: ON everywhere
// except the Release preset); standalone compilations fall back to NDEBUG.
#if !defined(EUGENE_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define EUGENE_LOCK_RANK_CHECKS 0
#else
#define EUGENE_LOCK_RANK_CHECKS 1
#endif
#endif

#if defined(__clang__)
#define EUGENE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EUGENE_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define EUGENE_CAPABILITY(x) EUGENE_THREAD_ANNOTATION(capability(x))
#define EUGENE_SCOPED_CAPABILITY EUGENE_THREAD_ANNOTATION(scoped_lockable)
#define EUGENE_GUARDED_BY(x) EUGENE_THREAD_ANNOTATION(guarded_by(x))
#define EUGENE_PT_GUARDED_BY(x) EUGENE_THREAD_ANNOTATION(pt_guarded_by(x))
#define EUGENE_REQUIRES(...) \
  EUGENE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EUGENE_EXCLUDES(...) EUGENE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EUGENE_ACQUIRE(...) \
  EUGENE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EUGENE_RELEASE(...) \
  EUGENE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EUGENE_TRY_ACQUIRE(...) \
  EUGENE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EUGENE_ACQUIRED_BEFORE(...) \
  EUGENE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define EUGENE_ACQUIRED_AFTER(...) \
  EUGENE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define EUGENE_RETURN_CAPABILITY(x) EUGENE_THREAD_ANNOTATION(lock_returned(x))
#define EUGENE_NO_THREAD_SAFETY_ANALYSIS \
  EUGENE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace eugene {

/// std::mutex with the Clang `capability` attribute so `-Wthread-safety`
/// can reason about it, plus a mandatory deadlock-analysis rank. Satisfies
/// BasicLockable/Lockable.
///
/// Construction requires a LockRank from the registry in common/lock_rank.hpp
/// (scripts/check_invariants.py rejects unranked mutexes in src/). In builds
/// with EUGENE_LOCK_RANK_CHECKS=1 every lock() verifies the rank is strictly
/// above everything the thread already holds; Release builds compile the
/// checker away so lock()/unlock() are exactly std::mutex (BM_MutexRankedLock
/// in bench_micro.cpp holds the hot path at parity).
class EUGENE_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name = "") {
#if EUGENE_LOCK_RANK_CHECKS
    rank_ = static_cast<std::uint16_t>(rank);
    name_ = name;
#else
    (void)rank;
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current())
      EUGENE_ACQUIRE() {
#if EUGENE_LOCK_RANK_CHECKS
    lock_rank::note_acquire(rank_, name_, this, loc);
#else
    (void)loc;
#endif
    mu_.lock();
  }

  void unlock() EUGENE_RELEASE() {
    mu_.unlock();
#if EUGENE_LOCK_RANK_CHECKS
    lock_rank::note_release(this);
#endif
  }

  bool try_lock(std::source_location loc = std::source_location::current())
      EUGENE_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
#if EUGENE_LOCK_RANK_CHECKS
    if (acquired) lock_rank::note_acquire_nonblocking(rank_, name_, this, loc);
#else
    (void)loc;
#endif
    return acquired;
  }

 private:
  std::mutex mu_;
#if EUGENE_LOCK_RANK_CHECKS
  std::uint16_t rank_ = 0;
  const char* name_ = "";
#endif
};

/// RAII lock for eugene::Mutex, visible to the thread-safety analysis as a
/// scoped capability (the analysis knows the mutex is held for the guard's
/// lifetime).
class EUGENE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     std::source_location loc = std::source_location::current())
      EUGENE_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(loc);
  }
  ~MutexLock() EUGENE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with eugene::Mutex. wait() atomically releases
/// and reacquires the mutex; annotation-wise the caller must already hold it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until `pred()` is true. The caller must hold `mu` (e.g. via a
  /// live MutexLock); `pred` runs with `mu` held.
  template <typename Pred>
  void wait(Mutex& mu, Pred pred) EUGENE_REQUIRES(mu) {
    cv_.wait(mu, pred);
  }

  /// Blocks until `pred()` is true or `timeout_ms` elapses; returns pred's
  /// final value. Same locking contract as wait().
  template <typename Pred>
  bool wait_for(Mutex& mu, double timeout_ms, Pred pred) EUGENE_REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::duration<double, std::milli>(timeout_ms),
                        pred);
  }

  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace eugene
