#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace memo {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfMemory:
      return "OUT_OF_MEMORY";
    case StatusCode::kOutOfHostMemory:
      return "OUT_OF_HOST_MEMORY";
    case StatusCode::kInfeasible:
      return "INFEASIBLE";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code_);
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status OutOfMemoryError(std::string message) {
  return Status(StatusCode::kOutOfMemory, std::move(message));
}
Status OutOfHostMemoryError(std::string message) {
  return Status(StatusCode::kOutOfHostMemory, std::move(message));
}
Status InfeasibleError(std::string message) {
  return Status(StatusCode::kInfeasible, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}

namespace internal_status {

void DieBecauseStatusOrError(const Status& status) {
  std::fprintf(stderr, "StatusOr accessed with error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal_status
}  // namespace memo
