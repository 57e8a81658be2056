#ifndef MEMO_OFFLOAD_DISK_BACKEND_H_
#define MEMO_OFFLOAD_DISK_BACKEND_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "offload/stash_backend.h"

namespace memo::offload {

/// NVMe-analog spill tier: blobs are split into fixed-size pages, each
/// checksummed (FNV-1a 64) and written to a slot of one temporary spill
/// file with positioned I/O. The page writes and read-backs of one blob fan
/// out over the shared ThreadPool, so a spill behaves like the multi-queue
/// writes of a real NVMe device; asynchrony relative to the compute thread
/// comes from the ActivationStore's disk lane calling Put and TakeInto off
/// the critical path (write-behind on stash, read-ahead on restore).
///
/// Every page is verified against its stored checksum when read back;
/// a mismatch surfaces as a kInternal Status (never a crash), and the spill
/// file is removed when the backend is destroyed.
///
/// Fault tolerance: every page write and read consults the shared
/// FaultInjector (sites "disk.page_write" / "disk.page_read") and runs
/// under the per-page RetryPolicy of DiskBackendOptions, so transient I/O
/// faults are absorbed with backoff before a Status ever surfaces. A failed
/// Put frees its slots and leaves no trace; a failed TakeInto leaves the
/// blob's pages resident and readable, so the caller may retry the whole
/// operation without losing data.
class DiskBackend : public StashBackend {
 public:
  explicit DiskBackend(const DiskBackendOptions& options = {});
  ~DiskBackend() override;

  DiskBackend(const DiskBackend&) = delete;
  DiskBackend& operator=(const DiskBackend&) = delete;

  std::string name() const override { return "disk"; }
  Status Put(std::int64_t key, std::string&& blob) override;
  Status TakeInto(std::int64_t key, std::string* blob) override;
  bool Contains(std::int64_t key) const override;
  bool OnDisk(std::int64_t key) const override { return Contains(key); }
  std::int64_t resident_bytes() const override;
  TierStats ram_stats() const override { return {}; }
  TierStats disk_stats() const override;

  /// Path of the spill file; empty until the first Put creates it. The file
  /// holds raw page payloads at slot * page_bytes offsets (checksums live in
  /// the in-memory index), which the corruption tests rely on.
  std::string path() const;

  std::int64_t page_bytes() const { return options_.page_bytes; }

 private:
  /// One fixed-size page of a stored blob.
  struct PageRef {
    std::int64_t slot = 0;          // offset = slot * page_bytes
    std::int64_t payload_len = 0;   // <= page_bytes (last page may be short)
    std::uint64_t checksum = 0;     // FNV-1a 64 of the payload
  };
  /// Opens the spill file on first use. Called with mu_ held.
  Status EnsureFileLocked();
  /// Reads + verifies `pages` into `*blob`, resized to `total` bytes; on
  /// success the slots go back to the free list and the take accounting is
  /// recorded. On failure the slots stay owned by the caller's pages (the
  /// data is still on disk) so the blob can be reinstated for a later retry.
  Status ReadPages(const std::vector<PageRef>& pages, std::int64_t total,
                   std::string* blob);
  /// Sleeps so `bytes` take at least bytes/bandwidth seconds end to end.
  void Throttle(std::int64_t bytes, double elapsed_seconds);

  const DiskBackendOptions options_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::int64_t next_slot_ = 0;
  std::vector<std::int64_t> free_slots_;
  std::unordered_map<std::int64_t, std::vector<PageRef>> index_;
  std::unordered_map<std::int64_t, std::int64_t> blob_bytes_;
  TierStats stats_;
};

}  // namespace memo::offload

#endif  // MEMO_OFFLOAD_DISK_BACKEND_H_
