#ifndef MEMO_OFFLOAD_TIERED_BACKEND_H_
#define MEMO_OFFLOAD_TIERED_BACKEND_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "offload/disk_backend.h"
#include "offload/ram_backend.h"

namespace memo::offload {

/// Two-tier stash: blobs land in the capacity-limited RAM tier while it has
/// room and spill to the disk tier once it is full — the storage counterpart
/// of `SolveAlphaTiered`'s RAM/disk split. Where the seed system aborted
/// with kOutOfHostMemory when M_CPU was exhausted, this backend degrades to
/// NVMe-analog bandwidth instead (SSDTrain's deeper memory hierarchy).
///
/// Graceful degradation: a disk-tier Put error that survives the disk's own
/// per-page retries is treated as the device dying, and the tier is
/// quarantined — later spills fail fast with the recorded status instead of
/// hammering a dead device, while blobs already on disk stay readable. The
/// trainer observes the quarantine through the surfaced kInternal and drops
/// to a RAM-only stash (or full recomputation) for the rest of the run.
class TieredBackend : public StashBackend {
 public:
  /// `ram_capacity_bytes` caps the RAM tier (0 = unlimited, so nothing ever
  /// spills); `disk` configures the spill tier, created lazily on first
  /// spill so RAM-only runs never touch the filesystem.
  TieredBackend(std::int64_t ram_capacity_bytes,
                const DiskBackendOptions& disk = {});

  std::string name() const override { return "tiered"; }
  Status Put(std::int64_t key, std::string&& blob) override;
  Status TakeInto(std::int64_t key, std::string* blob) override;
  bool Contains(std::int64_t key) const override;
  bool OnDisk(std::int64_t key) const override;
  std::int64_t resident_bytes() const override;
  TierStats ram_stats() const override { return ram_.ram_stats(); }
  TierStats disk_stats() const override;

  /// Blobs routed past RAM into the spill file so far.
  std::int64_t spilled_blobs() const;

  /// True once the disk tier has been quarantined after a permanent fault.
  bool disk_quarantined() const;
  /// The fault that triggered the quarantine (OK while healthy).
  Status disk_status() const;

 private:
  /// Returns the disk tier, creating it on first use. Thread-safe.
  DiskBackend* Disk();

  RamBackend ram_;
  const DiskBackendOptions disk_options_;

  mutable std::mutex mu_;
  std::unique_ptr<DiskBackend> disk_;
  /// key -> true when the blob lives on disk (absent keys live in RAM).
  std::unordered_map<std::int64_t, bool> on_disk_;
  std::int64_t spilled_blobs_ = 0;
  /// Sticky failure that quarantined the disk tier (OK while healthy).
  Status disk_failure_;
};

}  // namespace memo::offload

#endif  // MEMO_OFFLOAD_TIERED_BACKEND_H_
