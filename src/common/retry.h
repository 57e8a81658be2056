#ifndef MEMO_COMMON_RETRY_H_
#define MEMO_COMMON_RETRY_H_

#include <functional>
#include <string>

#include "common/status.h"

namespace memo {

/// Bounded-retry policy with exponential backoff. The swap tiers run for
/// minutes per iteration against host RAM and the NVMe-analog spill file,
/// so a transient pread/pwrite failure must not kill the run: retryable
/// errors (kInternal — the code real I/O faults surface as) are
/// re-attempted with growing sleeps; logical errors (kNotFound,
/// kInvalidArgument) and capacity exhaustion (kOutOfHostMemory, which
/// retrying cannot fix) surface immediately.
///
/// Every re-attempt increments "retry.<op>.retries" in the MetricsRegistry
/// and emits a trace instant; an exhausted operation increments
/// "retry.<op>.giveups" before the last error is returned.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  int max_attempts = 3;
  /// Sleep before the first re-attempt; doubles per retry up to
  /// max_backoff_seconds.
  double initial_backoff_seconds = 0.0005;
  double max_backoff_seconds = 0.05;
  /// Also retry kUnavailable and kDeadlineExceeded. Off by default: in the
  /// I/O tiers these codes never occur, but serve clients see them when the
  /// server sheds load or a request times out, and both are explicitly safe
  /// to re-send (the request was refused, not half-executed).
  bool retry_unavailable = false;

  /// True for codes a retry can plausibly fix.
  static bool IsRetryable(StatusCode code) {
    return code == StatusCode::kInternal;
  }

  /// Instance flavour of IsRetryable honouring retry_unavailable.
  bool Retryable(StatusCode code) const {
    return IsRetryable(code) ||
           (retry_unavailable && (code == StatusCode::kUnavailable ||
                                  code == StatusCode::kDeadlineExceeded));
  }

  /// Runs `fn` under this policy. `op` names the operation in metrics and
  /// trace events (e.g. "disk.page_write").
  Status Run(const std::string& op, const std::function<Status()>& fn) const;
};

}  // namespace memo

#endif  // MEMO_COMMON_RETRY_H_
