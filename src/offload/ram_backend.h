#ifndef MEMO_OFFLOAD_RAM_BACKEND_H_
#define MEMO_OFFLOAD_RAM_BACKEND_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "offload/stash_backend.h"

namespace memo::offload {

/// The seed ActivationStore stash as a StashBackend: an in-memory map, now
/// with byte accounting and an enforced capacity — the numeric counterpart
/// of the §4.1 M_CPU constraint. A Put that would exceed the capacity fails
/// with kOutOfHostMemory (the paper's X_oohm outcome) instead of silently
/// growing past the budget.
class RamBackend : public StashBackend {
 public:
  /// `capacity_bytes` caps resident payload bytes; 0 = unlimited.
  explicit RamBackend(std::int64_t capacity_bytes = 0);

  std::string name() const override { return "ram"; }
  Status Put(std::int64_t key, std::string&& blob) override;
  Status TakeInto(std::int64_t key, std::string* blob) override;
  bool Contains(std::int64_t key) const override;
  std::int64_t resident_bytes() const override;
  TierStats ram_stats() const override;
  TierStats disk_stats() const override { return {}; }

  std::int64_t capacity_bytes() const { return capacity_bytes_; }

  /// True when `blob_bytes` more payload would still fit (always true with
  /// an unlimited capacity). Used by the tiered router.
  bool Fits(std::int64_t blob_bytes) const;

  /// Test-only: skews the resident-byte counter so the accounting-underflow
  /// guard in TakeInto is reachable (a real double-release cannot be staged
  /// through the public API because TakeInto removes the entry it
  /// releases).
  void CorruptResidentBytesForTest(std::int64_t delta);

 private:
  const std::int64_t capacity_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, std::string> blobs_;
  TierStats stats_;
};

}  // namespace memo::offload

#endif  // MEMO_OFFLOAD_RAM_BACKEND_H_
