#include "offload/ram_backend.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fault_injector.h"
#include "obs/metrics.h"

namespace memo::offload {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

RamBackend::RamBackend(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

bool RamBackend::Fits(std::int64_t blob_bytes) const {
  if (capacity_bytes_ <= 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes + blob_bytes <= capacity_bytes_;
}

Status RamBackend::Put(std::int64_t key, std::string&& blob) {
  const Clock::time_point start = Clock::now();
  const std::int64_t bytes = static_cast<std::int64_t>(blob.size());
  // A fired fault models a failed host copy: nothing was mutated yet, so
  // the caller may retry the whole Put.
  MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("ram.put"));
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_bytes_ > 0 &&
      stats_.resident_bytes + bytes > capacity_bytes_) {
    return OutOfHostMemoryError(
        "RAM stash tier full: " + std::to_string(stats_.resident_bytes) +
        " + " + std::to_string(bytes) + " bytes exceeds capacity " +
        std::to_string(capacity_bytes_));
  }
  if (!blobs_.emplace(key, std::move(blob)).second) {
    return InvalidArgumentError("key " + std::to_string(key) +
                                " already stashed in RAM tier");
  }
  static obs::MetricCounter* put_bytes_counter =
      obs::MetricsRegistry::Global().counter("ram.put_bytes");
  put_bytes_counter->Add(bytes);
  stats_.put_bytes += bytes;
  stats_.resident_bytes += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  stats_.write_seconds += SecondsSince(start);
  return OkStatus();
}

Status RamBackend::TakeInto(std::int64_t key, std::string* blob) {
  const Clock::time_point start = Clock::now();
  MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("ram.take"));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return NotFoundError("key " + std::to_string(key) +
                         " not present in RAM tier");
  }
  const std::int64_t bytes = static_cast<std::int64_t>(it->second.size());
  // Releasing more bytes than are resident means the accounting was
  // corrupted (e.g. a double-release of a stash key): surface kInternal
  // instead of silently wrapping the counter negative, and leave the entry
  // in place so the inconsistency stays inspectable.
  if (stats_.resident_bytes < bytes) {
    return InternalError(
        "RAM tier byte-accounting underflow: releasing " +
        std::to_string(bytes) + " bytes with only " +
        std::to_string(stats_.resident_bytes) + " resident");
  }
  *blob = std::move(it->second);
  blobs_.erase(it);
  static obs::MetricCounter* take_bytes_counter =
      obs::MetricsRegistry::Global().counter("ram.take_bytes");
  take_bytes_counter->Add(bytes);
  stats_.take_bytes += bytes;
  stats_.resident_bytes -= bytes;
  stats_.read_seconds += SecondsSince(start);
  return OkStatus();
}

void RamBackend::CorruptResidentBytesForTest(std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.resident_bytes += delta;
}

bool RamBackend::Contains(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blobs_.count(key) > 0;
}

std::int64_t RamBackend::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

TierStats RamBackend::ram_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace memo::offload
