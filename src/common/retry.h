#ifndef PRORE_COMMON_RETRY_H_
#define PRORE_COMMON_RETRY_H_

#include <cstdint>

#include "common/cancellation.h"
#include "common/status.h"

namespace prore {

/// How a fault boundary should react to a failure. The pipeline retries
/// only kTransient faults: a watchdog trip or deadline brush may have been
/// caused by scheduling noise or a contended sibling group, so one bounded
/// retry is cheap insurance before demoting the predicate a ladder rung.
/// Deterministic faults (validator findings, crashes, internal errors)
/// would fail identically on retry, and cancellation must never be
/// retried at all.
enum class FaultClass : uint8_t {
  kNone = 0,          ///< no fault
  kTransient,         ///< timing-dependent: watchdog, deadline, OOM
  kDeterministic,     ///< input-dependent: validator, crash, bad status
  kCancelled,         ///< cooperative cancellation: propagate, never retry
};

const char* FaultClassName(FaultClass c);

/// Classify a non-ok Status from a pipeline stage / fault boundary.
FaultClass ClassifyFaultStatus(const Status& status);

/// Bounded exponential backoff between retries. Defaults are deliberately
/// tiny: the pipeline runs inline in CLIs and tests, so the worst added
/// latency per predicate is max_retries * max_delay_ms.
struct BackoffPolicy {
  int max_retries = 1;
  uint64_t initial_delay_ms = 1;
  double multiplier = 2.0;
  uint64_t max_delay_ms = 50;

  /// Delay before retry `attempt` (1-based), clamped to max_delay_ms.
  uint64_t DelayForAttemptMs(int attempt) const;
};

/// User-facing retry configuration: the total attempt budget and the
/// backoff bounds, threaded from the CLIs (`--retry-attempts=N` on prore
/// and prored) through PipelineOptions down to the per-predicate fault
/// boundary. `max_attempts` counts the first try, so 1 disables retries
/// entirely and 2 is the historical "one retry" behavior. Delays grow
/// exponentially (x2) from base_ms, clamped to max_ms.
struct RetryPolicy {
  int max_attempts = 2;
  uint64_t base_ms = 1;
  uint64_t max_ms = 50;

  bool enabled() const { return max_attempts > 1; }
  /// Retries on top of the first attempt (never negative).
  int max_retries() const { return max_attempts > 1 ? max_attempts - 1 : 0; }
  BackoffPolicy ToBackoff() const {
    return BackoffPolicy{max_retries(), base_ms, 2.0, max_ms};
  }
};

/// Sleeps for the attempt's backoff delay, interruptibly: returns early
/// (with the context's failure status) if the token is cancelled or the
/// deadline expires first — a cancelled pipeline must not sit in a sleep
/// it no longer needs. Returns OK when the full delay elapsed.
Status BackoffSleep(const BackoffPolicy& policy, int attempt,
                    const ExecContext& ctx);

}  // namespace prore

#endif  // PRORE_COMMON_RETRY_H_
