#ifndef MEMO_COMMON_STATUS_H_
#define MEMO_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace memo {

/// Error categories used across the MEMO library. The set mirrors the failure
/// modes that appear in the paper's evaluation: regular invalid input,
/// GPU out-of-memory (the paper's X_oom), host out-of-memory (X_oohm),
/// infeasible optimization problems, and internal invariant violations.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfMemory = 3,      // GPU memory exhausted (X_oom in Table 3).
  kOutOfHostMemory = 4,  // CPU/host memory exhausted (X_oohm in Table 3).
  kInfeasible = 5,       // An LP/MIP or strategy search has no solution.
  kUnimplemented = 6,
  kInternal = 7,
  kUnavailable = 8,      // Service saturated: retry later (load shedding).
  kDeadlineExceeded = 9,  // The request's time budget ran out (serve path).
};

/// Returns the canonical spelling of a status code, e.g. "OUT_OF_MEMORY".
const char* StatusCodeToString(StatusCode code);

/// A lightweight absl::Status-style result type. MEMO never throws across
/// public API boundaries; fallible operations return Status or StatusOr<T>.
class Status {
 public:
  /// Constructs an OK status.
  constexpr Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with the given code and human-readable message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True when the status carries the GPU OOM code.
  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  /// True when the status carries the host OOM code.
  bool IsOutOfHostMemory() const {
    return code_ == StatusCode::kOutOfHostMemory;
  }
  bool IsInfeasible() const { return code_ == StatusCode::kInfeasible; }
  /// True when the status carries the load-shedding code (the caller should
  /// back off and retry; the request itself was never looked at).
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  /// True when the status carries the deadline code (the request's time
  /// budget ran out before an answer was produced; the partial work was
  /// discarded, never cached).
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// "OK" or "CODE: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

Status OkStatus();
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfMemoryError(std::string message);
Status OutOfHostMemoryError(std::string message);
Status InfeasibleError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);

namespace internal_status {
/// What StatusOr::status() returns for a value. Constant-initialized, so
/// reading it needs no first-use guard (a guarded function-local static
/// draws GCC 12 -Wmaybe-uninitialized false positives from every caller).
inline constinit const Status kOk;
}  // namespace internal_status

/// Holds either a value of type T or an error Status. Modeled after
/// absl::StatusOr; accessing the value of an errored StatusOr aborts.
template <typename T>
class StatusOr {
 public:
  /// Constructs from an error status. Must not be OK.
  StatusOr(Status status) : rep_(std::move(status)) {}  // NOLINT
  /// Constructs from a value.
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    if (ok()) return internal_status::kOk;
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    AbortIfError();
    return std::get<T>(rep_);
  }
  T& value() & {
    AbortIfError();
    return std::get<T>(rep_);
  }
  T&& value() && {
    AbortIfError();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfError() const;

  std::variant<Status, T> rep_;
};

namespace internal_status {
[[noreturn]] void DieBecauseStatusOrError(const Status& status);
}  // namespace internal_status

template <typename T>
void StatusOr<T>::AbortIfError() const {
  if (!ok()) internal_status::DieBecauseStatusOrError(std::get<Status>(rep_));
}

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define MEMO_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::memo::Status memo_status_tmp_ = (expr);       \
    if (!memo_status_tmp_.ok()) return memo_status_tmp_; \
  } while (0)

#define MEMO_INTERNAL_CONCAT_IMPL(a, b) a##b
#define MEMO_INTERNAL_CONCAT(a, b) MEMO_INTERNAL_CONCAT_IMPL(a, b)

#define MEMO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

/// Evaluates `rexpr` (a StatusOr<T> expression); on success assigns the value
/// to `lhs`, otherwise returns the error from the enclosing function.
#define MEMO_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  MEMO_ASSIGN_OR_RETURN_IMPL(MEMO_INTERNAL_CONCAT(memo_statusor_, __LINE__), \
                             lhs, rexpr)

}  // namespace memo

#endif  // MEMO_COMMON_STATUS_H_
