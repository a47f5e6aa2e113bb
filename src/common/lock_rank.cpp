#include "common/lock_rank.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace eugene {

const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kModelRegistry: return "kModelRegistry";
    case LockRank::kRegistryView: return "kRegistryView";
    case LockRank::kLifecycle: return "kLifecycle";
    case LockRank::kUsageMeter: return "kUsageMeter";
    case LockRank::kEngine: return "kEngine";
    case LockRank::kTrace: return "kTrace";
    case LockRank::kMetrics: return "kMetrics";
    case LockRank::kFailpointRegistry: return "kFailpointRegistry";
    case LockRank::kLogging: return "kLogging";
  }
  return "?";
}

namespace lock_rank {
namespace {

/// One acquisition the current thread has not yet released.
struct Held {
  const void* mutex = nullptr;
  const char* name = "";
  std::uint16_t rank = 0;
  std::source_location loc;
};

/// No thread in this codebase legitimately nests anywhere near this deep; a
/// deeper stack means runaway recursion under locks and aborts loudly.
constexpr std::size_t kMaxHeld = 64;

/// The per-thread held-lock set, in acquisition order. Deliberately a
/// fixed-capacity aggregate, NOT a std::vector: it must be trivially
/// destructible so no TLS destructor ever runs. Statics with eugene::Mutex
/// members (meters, registries, fuzz-harness fixtures) are destroyed by
/// atexit *after* __call_tls_dtors has torn down thread_local objects, and
/// their destructors still lock — a heap-backed stack here is a
/// use-after-free at shutdown (found by FuzzReplay.usage_journal under
/// ASan).
struct HeldStack {
  Held entries[kMaxHeld];
  std::size_t size;
};
static_assert(std::is_trivially_destructible_v<HeldStack>,
              "the held-lock stack must not have a TLS destructor; "
              "see the comment above");

HeldStack& held_stack() {
  thread_local HeldStack stack;
  return stack;
}

std::atomic<ViolationHandler> g_handler{nullptr};

void append_entry(std::string& out, const char* name, std::uint16_t rank,
                  const std::source_location& loc) {
  out += "  ";
  out += name;
  out += " (rank ";
  out += std::to_string(rank);
  out += " ";
  out += lock_rank_name(static_cast<LockRank>(rank));
  out += ") acquired at ";
  out += loc.file_name();
  out += ":";
  out += std::to_string(loc.line());
  out += "\n";
}

void report_violation(const Held& blocker, std::uint16_t rank, const char* name,
                      const std::source_location& loc) {
  std::string report =
      "lock-rank violation: acquiring a mutex whose rank is not above every "
      "held lock (potential deadlock cycle)\n"
      "offending acquisition:\n";
  append_entry(report, name, rank, loc);
  report += "highest-ranked lock already held:\n";
  append_entry(report, blocker.name, blocker.rank, blocker.loc);
  report += "full held-lock stack of this thread (acquisition order):\n";
  const HeldStack& stack = held_stack();
  for (std::size_t i = 0; i < stack.size; ++i)
    append_entry(report, stack.entries[i].name, stack.entries[i].rank,
                 stack.entries[i].loc);
  report +=
      "fix: acquire in increasing rank order, or move the inner lock to a "
      "higher rank in common/lock_rank.hpp\n";

  if (ViolationHandler handler = g_handler.load(std::memory_order_acquire)) {
    handler(report);
    return;
  }
  std::fputs(report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

void push_held(HeldStack& stack, const Held& held) {
  if (stack.size >= kMaxHeld) {
    std::fputs(
        "lock-rank checker: more than 64 locks held by one thread — "
        "runaway recursion under locks\n",
        stderr);
    std::abort();
  }
  stack.entries[stack.size++] = held;
}

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void note_acquire(std::uint16_t rank, const char* name, const void* mutex,
                  std::source_location loc) {
  HeldStack& stack = held_stack();
  const Held* blocker = nullptr;
  for (std::size_t i = 0; i < stack.size; ++i) {
    const Held& h = stack.entries[i];
    if (h.rank >= rank && (blocker == nullptr || h.rank > blocker->rank))
      blocker = &h;
  }
  if (blocker != nullptr) report_violation(*blocker, rank, name, loc);
  push_held(stack, Held{mutex, name, rank, loc});
}

void note_acquire_nonblocking(std::uint16_t rank, const char* name,
                              const void* mutex, std::source_location loc) {
  push_held(held_stack(), Held{mutex, name, rank, loc});
}

void note_release(const void* mutex) {
  HeldStack& stack = held_stack();
  for (std::size_t i = stack.size; i > 0; --i) {
    if (stack.entries[i - 1].mutex == mutex) {
      for (std::size_t j = i - 1; j + 1 < stack.size; ++j)
        stack.entries[j] = stack.entries[j + 1];
      --stack.size;
      return;
    }
  }
  // Releasing a lock we never saw acquired: only possible if checks were
  // toggled mid-flight or the mutex was locked through the raw std::mutex.
  // Ignore rather than abort — the acquire-side check is the load-bearing one.
}

std::size_t held_count() { return held_stack().size; }

}  // namespace lock_rank
}  // namespace eugene
