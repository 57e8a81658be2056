#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo {

Status RetryPolicy::Run(const std::string& op,
                        const std::function<Status()>& fn) const {
  const int attempts = std::max(1, max_attempts);
  double backoff = initial_backoff_seconds;
  Status last = OkStatus();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = fn();
    if (last.ok()) return last;
    if (!Retryable(last.code())) return last;
    if (attempt == attempts) {
      obs::MetricsRegistry::Global().counter("retry.giveups")->Add(1);
      obs::MetricsRegistry::Global().counter("retry." + op + ".giveups")
          ->Add(1);
      MEMO_TRACE_INSTANT("retry_giveup", "fault",
                         op + ": " + last.ToString());
      return Status(last.code(), op + " failed after " +
                                     std::to_string(attempt) +
                                     " attempt(s): " + last.ToString());
    }
    obs::MetricsRegistry::Global().counter("retry." + op + ".retries")
        ->Add(1);
    obs::MetricsRegistry::Global().counter("retry.retries")->Add(1);
    MEMO_TRACE_INSTANT("retry_attempt", "fault",
                       op + " attempt " + std::to_string(attempt + 1));
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    backoff = std::min(max_backoff_seconds, 2.0 * backoff);
  }
  return last;
}

}  // namespace memo
