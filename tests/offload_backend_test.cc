// Tests of the pluggable stash backends (src/offload/): RAM capacity
// accounting, disk paging with checksummed read-back, and the tiered
// RAM-then-disk spill routing. The failure paths matter most here — a
// corrupted spill page must surface a Status error, never a crash, and the
// spill file must not outlive its backend.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/fault_injector.h"
#include "common/fingerprint.h"
#include "gtest/gtest.h"
#include "offload/disk_backend.h"
#include "offload/ram_backend.h"
#include "offload/tiered_backend.h"

namespace memo::offload {
namespace {

/// Clears every armed fault when a leg ends, so injection cannot leak into
/// later tests even when an ASSERT aborts the leg early.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

/// A deterministic pseudo-random blob of `bytes` bytes (value patterns vary
/// with the seed so cross-key mixups would be caught by content checks).
std::string MakeBlob(std::size_t bytes, unsigned seed) {
  std::string blob(bytes, '\0');
  unsigned state = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < bytes; ++i) {
    state = state * 1664525u + 1013904223u;
    blob[i] = static_cast<char>(state >> 24);
  }
  return blob;
}

TEST(RamBackendTest, RoundTripAndByteAccounting) {
  RamBackend ram(/*capacity_bytes=*/0);
  const std::string blob = MakeBlob(1000, 1);
  std::string copy = blob;
  ASSERT_TRUE(ram.Put(7, std::move(copy)).ok());
  EXPECT_TRUE(ram.Contains(7));
  EXPECT_EQ(ram.resident_bytes(), 1000);

  const TierStats mid = ram.ram_stats();
  EXPECT_EQ(mid.put_bytes, 1000);
  EXPECT_EQ(mid.peak_resident_bytes, 1000);

  auto taken = ram.Take(7);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
  EXPECT_FALSE(ram.Contains(7));
  EXPECT_EQ(ram.resident_bytes(), 0);
  EXPECT_EQ(ram.ram_stats().take_bytes, 1000);
}

TEST(RamBackendTest, CapacityEnforced) {
  RamBackend ram(/*capacity_bytes=*/1024);
  ASSERT_TRUE(ram.Put(1, MakeBlob(512, 1)).ok());
  const Status overflow = ram.Put(2, MakeBlob(513, 2));
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.IsOutOfHostMemory());
  // The failed Put must not leak into the accounting.
  EXPECT_EQ(ram.resident_bytes(), 512);
  EXPECT_EQ(ram.ram_stats().put_bytes, 512);
}

TEST(RamBackendTest, ExactlyAtCapacityIsNotAnError) {
  RamBackend ram(/*capacity_bytes=*/1024);
  ASSERT_TRUE(ram.Put(1, MakeBlob(1024, 1)).ok());
  EXPECT_EQ(ram.resident_bytes(), 1024);
  // Freeing makes room again.
  ASSERT_TRUE(ram.Take(1).ok());
  EXPECT_TRUE(ram.Put(2, MakeBlob(1024, 2)).ok());
}

TEST(RamBackendTest, DuplicateAndMissingKeys) {
  RamBackend ram(0);
  ASSERT_TRUE(ram.Put(3, MakeBlob(8, 1)).ok());
  const Status dup = ram.Put(3, MakeBlob(8, 2));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  const auto missing = ram.Take(99);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

DiskBackendOptions SmallPages() {
  DiskBackendOptions options;
  options.page_bytes = 256;  // force multi-page blobs with tiny payloads
  return options;
}

TEST(DiskBackendTest, MultiPageRoundTripIsBitExact) {
  DiskBackend disk(SmallPages());
  // 1000 bytes over 256-byte pages: three full pages + one short page.
  const std::string blob = MakeBlob(1000, 42);
  std::string copy = blob;
  ASSERT_TRUE(disk.Put(5, std::move(copy)).ok());
  EXPECT_TRUE(disk.Contains(5));
  EXPECT_EQ(disk.resident_bytes(), 1000);
  EXPECT_EQ(disk.disk_stats().spill_pages, 4);

  auto taken = disk.Take(5);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
  EXPECT_EQ(disk.resident_bytes(), 0);
  // Every page read back was verified against its stored checksum.
  EXPECT_EQ(disk.disk_stats().checksum_verifications, 4);
}

TEST(DiskBackendTest, EmptyBlobRoundTrips) {
  DiskBackend disk(SmallPages());
  ASSERT_TRUE(disk.Put(1, std::string()).ok());
  auto taken = disk.Take(1);
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken.value().empty());
}

TEST(DiskBackendTest, SpillFileRemovedOnDestruction) {
  std::string path;
  {
    DiskBackend disk(SmallPages());
    EXPECT_TRUE(disk.path().empty());  // created lazily
    ASSERT_TRUE(disk.Put(1, MakeBlob(100, 7)).ok());
    path = disk.path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "spill file " << path << " outlived its backend";
}

TEST(DiskBackendTest, ChecksumMismatchSurfacesStatusError) {
  DiskBackend disk(SmallPages());
  const std::string blob = MakeBlob(600, 3);
  std::string copy = blob;
  ASSERT_TRUE(disk.Put(9, std::move(copy)).ok());

  // Corrupt one byte of the second page in the spill file (raw payloads at
  // slot * page_bytes; the first Put gets slots 0..n in order).
  const int fd = ::open(disk.path().c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const char garbage = 'X';
  ASSERT_EQ(::pwrite(fd, &garbage, 1, disk.page_bytes() + 17), 1);
  ::close(fd);

  auto taken = disk.Take(9);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInternal);
  EXPECT_NE(taken.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << taken.status().ToString();
}

TEST(DiskBackendTest, BuffersOfPutAndTakeIntoAreReused) {
  DiskBackend disk(SmallPages());
  const std::string blob = MakeBlob(700, 11);
  // Put copies the bytes out and leaves the caller's buffer as it was...
  std::string buffer = blob;
  ASSERT_TRUE(disk.Put(2, std::move(buffer)).ok());
  EXPECT_EQ(buffer, blob);
  EXPECT_TRUE(disk.OnDisk(2));
  // ...and TakeInto reads back into that buffer's storage.
  const char* storage = buffer.data();
  buffer.assign(700, 'x');
  ASSERT_TRUE(disk.TakeInto(2, &buffer).ok());
  EXPECT_EQ(buffer, blob);
  EXPECT_EQ(buffer.data(), storage);
  EXPECT_FALSE(disk.OnDisk(2));
}

TEST(DiskBackendTest, FreedSlotsAreReused) {
  DiskBackend disk(SmallPages());
  ASSERT_TRUE(disk.Put(1, MakeBlob(1024, 1)).ok());
  ASSERT_TRUE(disk.Take(1).ok());
  struct stat before;
  ASSERT_EQ(::stat(disk.path().c_str(), &before), 0);
  // Same-size blobs land in the freed slots: the file must not grow.
  ASSERT_TRUE(disk.Put(2, MakeBlob(1024, 2)).ok());
  struct stat after;
  ASSERT_EQ(::stat(disk.path().c_str(), &after), 0);
  EXPECT_EQ(before.st_size, after.st_size);
}

TEST(DiskBackendTest, ThrottleAccountsEmulatedBandwidth) {
  DiskBackendOptions options;
  options.page_bytes = 64 * 1024;
  options.bytes_per_second = 100e6;  // 100 MB/s: 1 MiB takes >= ~10 ms
  DiskBackend disk(options);
  ASSERT_TRUE(disk.Put(1, MakeBlob(1 << 20, 9)).ok());
  EXPECT_GE(disk.disk_stats().write_seconds, 0.009);
  ASSERT_TRUE(disk.Take(1).ok());
  EXPECT_GE(disk.disk_stats().read_seconds, 0.009);
}

TEST(DiskBackendTest, InjectedWriteFaultFailsPutCleanly) {
  InjectorGuard guard;
  DiskBackend disk(SmallPages());
  // A permanent fault outlasts the per-page retries, so the Put must fail.
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);
  const Status st = disk.Put(1, MakeBlob(600, 8));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.ToString().find("injected"), std::string::npos)
      << st.ToString();
  // A failed Put leaves no entry and no accounting behind.
  EXPECT_FALSE(disk.Contains(1));
  EXPECT_EQ(disk.resident_bytes(), 0);
  // Disarmed, the same Put succeeds.
  FaultInjector::Global().Disarm("disk.page_write");
  ASSERT_TRUE(disk.Put(1, MakeBlob(600, 8)).ok());
  EXPECT_TRUE(disk.Contains(1));
}

TEST(DiskBackendTest, TransientWriteFaultIsAbsorbedByPageRetry) {
  InjectorGuard guard;
  DiskBackend disk(SmallPages());
  // One single-shot fault: the first page write fails once, its retry
  // succeeds, and the Put as a whole never sees an error.
  FaultRule rule;
  rule.nth = 1;
  rule.max_failures = 1;
  FaultInjector::Global().Arm("disk.page_write", rule);
  const std::string blob = MakeBlob(600, 8);
  std::string copy = blob;
  ASSERT_TRUE(disk.Put(1, std::move(copy)).ok());
  EXPECT_EQ(FaultInjector::Global().failures("disk.page_write"), 1);
  auto taken = disk.Take(1);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
}

TEST(DiskBackendTest, InjectedReadFaultFailsTakeCleanly) {
  InjectorGuard guard;
  std::string path;
  {
    DiskBackend disk(SmallPages());
    const std::string blob = MakeBlob(600, 9);
    std::string copy = blob;
    ASSERT_TRUE(disk.Put(3, std::move(copy)).ok());
    path = disk.path();
    FaultRule rule;
    rule.nth = 1;
    rule.permanent = true;
    FaultInjector::Global().Arm("disk.page_read", rule);
    const auto taken = disk.Take(3);
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.status().code(), StatusCode::kInternal);
    EXPECT_NE(taken.status().ToString().find("injected"), std::string::npos)
        << taken.status().ToString();
    // The failed Take must not consume the blob: once the fault clears, a
    // retried Take returns the original bytes.
    FaultInjector::Global().Disarm("disk.page_read");
    EXPECT_TRUE(disk.Contains(3));
    auto retried = disk.Take(3);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried.value(), blob);
  }
  // The fault must not leak the spill file past the backend's lifetime.
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "spill file " << path << " outlived its backend after a read fault";
}

TEST(DiskBackendTest, InjectedFaultReachesTheTieredDiskTier) {
  InjectorGuard guard;
  TieredBackend tiered(/*ram_capacity_bytes=*/100, SmallPages());
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);
  const Status st = tiered.Put(1, MakeBlob(500, 6));  // too big for RAM
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(TieredBackendTest, PermanentDiskFaultQuarantinesTheDiskTier) {
  InjectorGuard guard;
  TieredBackend tiered(/*ram_capacity_bytes=*/100, SmallPages());
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);
  ASSERT_FALSE(tiered.Put(1, MakeBlob(500, 6)).ok());
  EXPECT_TRUE(tiered.disk_quarantined());
  EXPECT_EQ(tiered.disk_status().code(), StatusCode::kInternal);
  // Later spills fail fast with the quarantine status — the injector no
  // longer needs to fire because the dead tier is never touched again.
  FaultInjector::Global().Disarm("disk.page_write");
  const Status spill = tiered.Put(2, MakeBlob(500, 7));
  ASSERT_FALSE(spill.ok());
  EXPECT_NE(spill.ToString().find("quarantined"), std::string::npos)
      << spill.ToString();
  // Blobs that fit the RAM tier still land: the backend degrades, it does
  // not die.
  const std::string small = MakeBlob(50, 8);
  std::string copy = small;
  ASSERT_TRUE(tiered.Put(3, std::move(copy)).ok());
  auto taken = tiered.Take(3);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), small);
}

TEST(RamBackendTest, ByteAccountingUnderflowSurfacesInternalError) {
  RamBackend ram(/*capacity_bytes=*/0);
  ASSERT_TRUE(ram.Put(1, MakeBlob(1000, 1)).ok());
  // Skew the counter below the entry's size: the release in Take would wrap
  // the accounting negative, which must surface as kInternal, not wrap.
  ram.CorruptResidentBytesForTest(-900);
  const auto taken = ram.Take(1);
  ASSERT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kInternal);
  EXPECT_NE(taken.status().ToString().find("underflow"), std::string::npos)
      << taken.status().ToString();
  // The entry stays inspectable after the failed release.
  EXPECT_TRUE(ram.Contains(1));
}

TEST(RamBackendTest, InjectedRamFaultsFailPutAndTakeCleanly) {
  InjectorGuard guard;
  RamBackend ram(/*capacity_bytes=*/0);
  FaultRule once;
  once.nth = 1;
  once.max_failures = 1;
  FaultInjector::Global().Arm("ram.put", once);
  const std::string blob = MakeBlob(100, 2);
  std::string copy = blob;
  EXPECT_EQ(ram.Put(1, std::move(copy)).code(), StatusCode::kInternal);
  // Nothing was mutated by the failed Put, so the same key is still free.
  copy = blob;
  ASSERT_TRUE(ram.Put(1, std::move(copy)).ok());
  FaultInjector::Global().Arm("ram.take", once);
  EXPECT_EQ(ram.Take(1).status().code(), StatusCode::kInternal);
  auto taken = ram.Take(1);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
}

TEST(TieredBackendTest, SpillsToDiskWhenRamFills) {
  TieredBackend tiered(/*ram_capacity_bytes=*/1500, SmallPages());
  const std::string a = MakeBlob(1000, 1);
  const std::string b = MakeBlob(1000, 2);
  std::string copy_a = a;
  std::string copy_b = b;
  ASSERT_TRUE(tiered.Put(1, std::move(copy_a)).ok());  // fits in RAM
  ASSERT_TRUE(tiered.Put(2, std::move(copy_b)).ok());  // spills
  EXPECT_EQ(tiered.spilled_blobs(), 1);
  EXPECT_EQ(tiered.ram_stats().put_bytes, 1000);
  EXPECT_EQ(tiered.disk_stats().put_bytes, 1000);
  EXPECT_EQ(tiered.resident_bytes(), 2000);

  auto taken_a = tiered.Take(1);
  auto taken_b = tiered.Take(2);
  ASSERT_TRUE(taken_a.ok());
  ASSERT_TRUE(taken_b.ok());
  EXPECT_EQ(taken_a.value(), a);
  EXPECT_EQ(taken_b.value(), b);
  EXPECT_EQ(tiered.resident_bytes(), 0);
}

TEST(TieredBackendTest, UnlimitedRamNeverSpills) {
  TieredBackend tiered(/*ram_capacity_bytes=*/0);
  for (int key = 0; key < 8; ++key) {
    ASSERT_TRUE(tiered.Put(key, MakeBlob(4096, key)).ok());
  }
  EXPECT_EQ(tiered.spilled_blobs(), 0);
  EXPECT_EQ(tiered.disk_stats().put_bytes, 0);
}

TEST(TieredBackendTest, OnDiskTellsWhereEachBlobLanded) {
  TieredBackend tiered(/*ram_capacity_bytes=*/600, SmallPages());
  ASSERT_TRUE(tiered.Put(1, MakeBlob(500, 1)).ok());  // fits in RAM
  ASSERT_TRUE(tiered.Put(2, MakeBlob(500, 2)).ok());  // spills
  EXPECT_FALSE(tiered.OnDisk(1));
  EXPECT_TRUE(tiered.OnDisk(2));
  EXPECT_FALSE(tiered.OnDisk(3));  // unknown keys live nowhere
  std::string blob;
  ASSERT_TRUE(tiered.TakeInto(2, &blob).ok());
  EXPECT_EQ(blob, MakeBlob(500, 2));
  EXPECT_FALSE(tiered.OnDisk(2));
}

TEST(TieredBackendTest, MissingKeyIsNotFound) {
  TieredBackend tiered(0);
  const auto missing = tiered.Take(5);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CreateBackendTest, FactoryBuildsEachKind) {
  BackendOptions options;
  options.kind = BackendKind::kRam;
  EXPECT_EQ(CreateBackend(options)->name(), "ram");
  options.kind = BackendKind::kDisk;
  EXPECT_EQ(CreateBackend(options)->name(), "disk");
  options.kind = BackendKind::kTiered;
  EXPECT_EQ(CreateBackend(options)->name(), "tiered");
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace memo::offload
