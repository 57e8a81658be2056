#ifndef MEMO_OFFLOAD_DISK_BACKEND_H_
#define MEMO_OFFLOAD_DISK_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace memo::offload {

/// Per-tier transfer/occupancy counters. The CPU-substrate counterpart of a
/// real system's per-device offload telemetry: one instance describes one
/// storage tier (host RAM or the NVMe-analog spill file), and both flow
/// through `train::OffloadStats` into `TrainRunResult` and the bench tables.
struct TierStats {
  std::int64_t put_bytes = 0;        // bytes written into the tier
  std::int64_t take_bytes = 0;       // bytes read back out
  double write_seconds = 0.0;        // wall time spent writing (incl. throttle)
  double read_seconds = 0.0;         // wall time spent reading (incl. throttle)
  std::int64_t spill_pages = 0;      // fixed-size pages written (disk only)
  std::int64_t checksum_verifications = 0;  // pages verified on read-back
  std::int64_t resident_bytes = 0;       // currently held payload bytes
  std::int64_t peak_resident_bytes = 0;  // high-water mark of the above

  TierStats& operator+=(const TierStats& o) {
    put_bytes += o.put_bytes;
    take_bytes += o.take_bytes;
    write_seconds += o.write_seconds;
    read_seconds += o.read_seconds;
    spill_pages += o.spill_pages;
    checksum_verifications += o.checksum_verifications;
    resident_bytes += o.resident_bytes;
    peak_resident_bytes = std::max(peak_resident_bytes, o.peak_resident_bytes);
    return *this;
  }
};

/// Configuration of the disk (NVMe-analog) tier. Payloads are split into
/// fixed-size checksummed pages appended to one temporary spill file; the
/// optional throttle emulates a storage link slower than host memory.
struct DiskBackendOptions {
  /// Page payload size; every page is checksummed independently so partial
  /// corruption is detected at read-back (satellite of SSDTrain-style
  /// durability checks). Must be > 0.
  std::int64_t page_bytes = 256 * 1024;
  /// Directory for the spill file; empty = TMPDIR or /tmp.
  std::string directory;
  /// Emulated sustained bandwidth in bytes/s (0 = unthrottled; otherwise
  /// at least kMinDiskBytesPerSecond). Lets the bench distinguish an
  /// NVMe-class tier (~6 GB/s) from PCIe host RAM.
  double bytes_per_second = 0.0;
};

/// Slowest throttle a disk tier takes: 1 MB/s. Far slower rates make a
/// blob's emulated wait too long to count in int64 microseconds.
inline constexpr double kMinDiskBytesPerSecond = 1e6;

/// Where the stash of one train::ActivationStore lives.
enum class BackendKind {
  kRam,     // host RAM only (the seed behaviour), optional capacity limit
  kDisk,    // everything goes to the spill file (stress/exactness testing)
  kTiered,  // RAM first, spill to disk when the RAM capacity is exhausted
};

/// Selection + sizing of the stash tiers for one store.
struct BackendOptions {
  BackendKind kind = BackendKind::kRam;
  /// RAM tier capacity in payload bytes; 0 = unlimited. With kRam a put past
  /// the limit fails with kOutOfHostMemory (the paper's X_oohm); with
  /// kTiered it spills to the disk tier instead.
  std::int64_t ram_capacity_bytes = 0;
  DiskBackendOptions disk;
};

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
/// under a per-page RetryPolicy with its default attempts and backoff, so
/// transient I/O faults are absorbed before a Status ever surfaces. A failed
/// Put frees its slots and leaves no trace; a failed TakeInto leaves the
/// blob's pages resident and readable, so the caller may retry the whole
/// operation without losing data.
///
/// Thread-safety: all methods may be called concurrently.
class DiskBackend {
 public:
  explicit DiskBackend(const DiskBackendOptions& options = {});
  ~DiskBackend();

  DiskBackend(const DiskBackend&) = delete;
  DiskBackend& operator=(const DiskBackend&) = delete;

  /// Writes a copy of `blob` under `key`, which must not be present yet.
  /// Fails with kInternal on I/O errors.
  Status Put(std::int64_t key, std::string_view blob);

  /// Reads the blob stored under `key` into `*blob`'s own storage (so a
  /// caller that recycles buffers allocates nothing) and removes it. Fails
  /// with kNotFound for unknown keys and kInternal on I/O or checksum
  /// errors, leaving the blob stored.
  Status TakeInto(std::int64_t key, std::string* blob);

  /// True while `key` holds a blob.
  bool Contains(std::int64_t key) const;

  /// Counters of this tier.
  TierStats stats() const;

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
  /// Reads + verifies `pages` into `*blob`; on success the slots go back to
  /// the free list and the take accounting is recorded. On failure the
  /// slots stay owned by the caller's pages (the data is still on disk) so
  /// the blob can be reinstated for a later retry.
  Status ReadPages(const std::vector<PageRef>& pages, std::string* blob);
  /// Sleeps so `bytes` take at least bytes/bandwidth seconds end to end.
  void Throttle(std::int64_t bytes, double elapsed_seconds);

  const DiskBackendOptions options_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::int64_t next_slot_ = 0;
  std::vector<std::int64_t> free_slots_;
  std::unordered_map<std::int64_t, std::vector<PageRef>> index_;
  TierStats stats_;
};

}  // namespace memo::offload

#endif  // MEMO_OFFLOAD_DISK_BACKEND_H_
