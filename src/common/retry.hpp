// Exponential backoff with jitter.
//
// Used by the live scheduler's worker supervision to space out the
// re-dispatches of a task whose worker died. Delays are computed from an
// explicit Rng so retry schedules are reproducible.
#pragma once

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace eugene {

/// Backoff shape: delay(attempt) = min(base * 2^(attempt-1), max), then
/// jittered by a uniform draw in [1 - jitter, 1 + jitter].
struct RetryPolicy {
  double base_delay_ms = 1.0;
  double max_delay_ms = 100.0;
  double jitter = 0.5;           ///< fraction of the delay randomized away
};

/// Backoff delay before retry number `attempt` (1-based: attempt 1 is the
/// first *retry*). Deterministic given the Rng state.
inline double backoff_delay_ms(const RetryPolicy& policy, std::size_t attempt,
                               Rng& rng) {
  EUGENE_REQUIRE(attempt >= 1, "backoff_delay_ms: attempt is 1-based");
  EUGENE_REQUIRE(policy.jitter >= 0.0 && policy.jitter <= 1.0,
                 "backoff_delay_ms: jitter outside [0,1]");
  // Saturate the exponent: past 2^63 the double has left every representable
  // max_delay_ms behind, and without the cap a zero base delay (0*2 == 0
  // never reaches the max) or an infinite max would spin the loop for up to
  // SIZE_MAX iterations — an effective hang for attempt counts a long-lived
  // retry loop legitimately reaches.
  const std::size_t doublings = std::min<std::size_t>(attempt - 1, 63);
  double delay = policy.base_delay_ms;
  for (std::size_t i = 0; i < doublings && delay < policy.max_delay_ms; ++i)
    delay *= 2.0;
  delay = std::min(delay, policy.max_delay_ms);
  if (policy.jitter > 0.0)
    delay *= rng.uniform(1.0 - policy.jitter, 1.0 + policy.jitter);
  return delay;
}

}  // namespace eugene
