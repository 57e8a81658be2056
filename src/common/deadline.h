#ifndef MEMO_COMMON_DEADLINE_H_
#define MEMO_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace memo {

/// A monotonic-clock deadline: the wall instant after which an operation
/// should stop doing work and report kDeadlineExceeded. Built on
/// steady_clock so a host clock step (NTP, suspend/resume) can neither
/// extend nor shorten a request's budget. Deadlines are plain values —
/// copy them into queues and across threads freely; expiry is a property
/// of the instant, not of who asks.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now; ms <= 0 is already expired.
  static Deadline AfterMillis(std::int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  static Deadline At(Clock::time_point at) { return Deadline(at); }

  bool is_infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Budget left in milliseconds, clamped to >= 0. Infinite deadlines
  /// report a very large value (callers feeding poll()-style timeouts
  /// should branch on is_infinite() instead).
  std::int64_t remaining_millis() const;
  double remaining_seconds() const;

  /// The earlier of the two deadlines — the composition rule for nested
  /// scopes: an inner scope may only tighten the budget, never extend it.
  Deadline EarlierOf(const Deadline& other) const;

 private:
  explicit Deadline(Clock::time_point at) : at_(at), infinite_(false) {}

  Clock::time_point at_{};
  bool infinite_ = true;
};

/// RAII ambient deadline for the current thread. Solvers deep in the call
/// tree (strategy sweeps, maxseq scans) cannot take a Deadline parameter
/// without threading it through every signature, so the serve layer
/// installs the request's deadline here and the solvers poll
/// CheckDeadline() at phase boundaries. Nested scopes install
/// EarlierOf(current, mine): an inner scope can only tighten the budget.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline& deadline);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline previous_;
};

/// The innermost ScopedDeadline on this thread; infinite when none is
/// installed.
const Deadline& CurrentDeadline();

/// OK while the ambient deadline has budget left; kDeadlineExceeded naming
/// `phase` once it has run out. The canonical phase-boundary probe:
///   MEMO_RETURN_IF_ERROR(CheckDeadline("strategy_sweep"));
Status CheckDeadline(const char* phase);

}  // namespace memo

#endif  // MEMO_COMMON_DEADLINE_H_
