#include "offload/tiered_backend.h"

#include <utility>

#include "common/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo::offload {

TieredBackend::TieredBackend(std::int64_t ram_capacity_bytes,
                             const DiskBackendOptions& disk)
    : ram_(ram_capacity_bytes), disk_options_(disk) {}

DiskBackend* TieredBackend::Disk() {
  std::lock_guard<std::mutex> lock(mu_);
  if (disk_ == nullptr) disk_ = std::make_unique<DiskBackend>(disk_options_);
  return disk_.get();
}

Status TieredBackend::Put(std::int64_t key, std::string&& blob) {
  MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("tiered.put"));
  const std::int64_t bytes = static_cast<std::int64_t>(blob.size());
  if (ram_.Fits(bytes)) {
    const Status st = ram_.Put(key, std::move(blob));
    // A concurrent Put may have claimed the remaining RAM between Fits and
    // Put; only a capacity failure falls through to the disk tier.
    if (!st.IsOutOfHostMemory()) {
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        on_disk_[key] = false;
      }
      return st;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!disk_failure_.ok()) {
      return Status(disk_failure_.code(),
                    "disk tier quarantined: " + disk_failure_.message());
    }
  }
  const Status st = Disk()->Put(key, std::move(blob));
  if (!st.ok()) {
    // A Put error that survived the disk's own per-page retries means the
    // device is effectively dead: quarantine the tier so later spills fail
    // fast instead of grinding through doomed retries. Capacity failures
    // (kOutOfHostMemory) are not device faults and do not quarantine.
    if (st.code() == StatusCode::kInternal) {
      bool newly_quarantined = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (disk_failure_.ok()) {
          disk_failure_ = st;
          newly_quarantined = true;
        }
      }
      if (newly_quarantined) {
        obs::MetricsRegistry::Global()
            .counter("tiered.disk_quarantined")
            ->Add(1);
        MEMO_TRACE_INSTANT("disk_quarantined", "fault", st.message());
      }
    }
    return st;
  }
  std::lock_guard<std::mutex> lock(mu_);
  on_disk_[key] = true;
  ++spilled_blobs_;
  return OkStatus();
}

Status TieredBackend::TakeInto(std::int64_t key, std::string* blob) {
  bool on_disk = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = on_disk_.find(key);
    if (it == on_disk_.end()) {
      return NotFoundError("key " + std::to_string(key) +
                           " not present in tiered stash");
    }
    on_disk = it->second;
    on_disk_.erase(it);
  }
  const Status st =
      on_disk ? Disk()->TakeInto(key, blob) : ram_.TakeInto(key, blob);
  if (!st.ok() && st.code() != StatusCode::kNotFound) {
    // The tier left the blob resident on failure; reinstate the routing
    // entry so a retried Take can still find it.
    std::lock_guard<std::mutex> lock(mu_);
    on_disk_[key] = on_disk;
  }
  return st;
}

bool TieredBackend::Contains(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return on_disk_.count(key) > 0;
}

bool TieredBackend::OnDisk(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = on_disk_.find(key);
  return it != on_disk_.end() && it->second;
}

std::int64_t TieredBackend::resident_bytes() const {
  std::int64_t disk_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (disk_ != nullptr) disk_bytes = disk_->resident_bytes();
  }
  return ram_.resident_bytes() + disk_bytes;
}

TierStats TieredBackend::disk_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_ != nullptr ? disk_->disk_stats() : TierStats{};
}

std::int64_t TieredBackend::spilled_blobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spilled_blobs_;
}

bool TieredBackend::disk_quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !disk_failure_.ok();
}

Status TieredBackend::disk_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_failure_;
}

std::unique_ptr<StashBackend> CreateBackend(const BackendOptions& options) {
  switch (options.kind) {
    case BackendKind::kRam:
      return std::make_unique<RamBackend>(options.ram_capacity_bytes);
    case BackendKind::kDisk:
      return std::make_unique<DiskBackend>(options.disk);
    case BackendKind::kTiered:
      return std::make_unique<TieredBackend>(options.ram_capacity_bytes,
                                             options.disk);
  }
  return std::make_unique<RamBackend>(0);
}

}  // namespace memo::offload
