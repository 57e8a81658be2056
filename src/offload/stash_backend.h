#ifndef MEMO_OFFLOAD_STASH_BACKEND_H_
#define MEMO_OFFLOAD_STASH_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/retry.h"
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
  /// Emulated sustained bandwidth in bytes/s (0 = unthrottled). Lets the
  /// bench distinguish an NVMe-class tier (~6 GB/s) from PCIe host RAM.
  double bytes_per_second = 0.0;
  /// Per-page I/O retry policy: a transient pwrite/pread fault (including
  /// the injected kind) is re-attempted with backoff before the page error
  /// surfaces from Put/Take.
  RetryPolicy retry;
};

/// Where the stash of one ActivationStore lives.
enum class BackendKind {
  kRam,     // host RAM only (the seed behaviour), optional capacity limit
  kDisk,    // everything goes to the spill file (stress/exactness testing)
  kTiered,  // RAM first, spill to disk when the RAM capacity is exhausted
};

/// Selection + sizing of the stash tiers for one store.
struct BackendOptions {
  BackendKind kind = BackendKind::kRam;
  /// RAM tier capacity in payload bytes; 0 = unlimited. With kRam a Put past
  /// the limit fails with kOutOfHostMemory (the paper's X_oohm); with
  /// kTiered it spills to the disk tier instead.
  std::int64_t ram_capacity_bytes = 0;
  DiskBackendOptions disk;
  /// Whole-operation retry policy applied by ActivationStore around the
  /// backend's Stash/Restore round trips (on top of the disk tier's own
  /// per-page retries). Failed Put/Take calls leave the backend unchanged,
  /// so re-attempting the whole blob is always safe.
  RetryPolicy retry;
};

/// Storage interface behind ActivationStore's stash: opaque byte blobs keyed
/// by layer. Implementations must return blobs bit-identical to what was
/// put — the token-wise recomputation correctness claim (Fig. 12d) rests on
/// exact restores, so a backend may page but never round.
///
/// Thread-safety: all methods may be called concurrently from the compute
/// thread and the ActivationStore copier and disk-lane threads.
class StashBackend {
 public:
  virtual ~StashBackend() = default;

  /// Human-readable tier description, e.g. "ram", "disk", "tiered".
  virtual std::string name() const = 0;

  /// Stores `blob` under `key`. Fails with kOutOfHostMemory when the tier
  /// capacity is exhausted (kRam) and with kInternal on I/O errors. `key`
  /// must not already be present. The RAM tier keeps `blob`'s buffer; the
  /// disk tier copies the bytes out and leaves `blob` as it was, so the
  /// caller may reuse the buffer. A failed Put never consumes `blob`.
  virtual Status Put(std::int64_t key, std::string&& blob) = 0;

  /// Removes the blob stored under `key` into `*blob`. Fails with kNotFound
  /// for unknown keys and kInternal on I/O or checksum errors, leaving the
  /// blob stored. The disk tier reads into `*blob`'s own storage, so a
  /// caller that recycles buffers allocates nothing; the RAM tier hands
  /// back the buffer it holds in place of `*blob`'s.
  virtual Status TakeInto(std::int64_t key, std::string* blob) = 0;

  /// TakeInto a fresh string.
  StatusOr<std::string> Take(std::int64_t key) {
    std::string blob;
    MEMO_RETURN_IF_ERROR(TakeInto(key, &blob));
    return blob;
  }

  /// True while `key` holds a blob.
  virtual bool Contains(std::int64_t key) const = 0;

  /// True while `key`'s blob lives on the disk tier, where taking it back
  /// is a disk read.
  virtual bool OnDisk(std::int64_t key) const {
    (void)key;
    return false;
  }

  /// Payload bytes currently resident across all tiers of this backend.
  virtual std::int64_t resident_bytes() const = 0;

  /// Counters of the RAM tier (zeros if this backend has none).
  virtual TierStats ram_stats() const = 0;
  /// Counters of the disk tier (zeros if this backend has none).
  virtual TierStats disk_stats() const = 0;
};

/// Builds the backend described by `options`. Never fails: disk-file
/// creation is deferred to the first spill, and I/O errors surface through
/// Put/Take statuses.
std::unique_ptr<StashBackend> CreateBackend(const BackendOptions& options);

}  // namespace memo::offload

#endif  // MEMO_OFFLOAD_STASH_BACKEND_H_
