// Tests of the stash tiers: the disk tier's paging with checksummed
// read-back (src/offload/), and the RAM tier and the RAM-then-disk routing
// that ActivationStore runs itself. The failure paths matter most here — a
// corrupted spill page must surface a Status error, never a crash, the
// spill file must not outlive its backend, and a dead disk must be
// quarantined by a tiered stash.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/fault_injector.h"
#include "common/fingerprint.h"
#include "common/retry.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "offload/disk_backend.h"
#include "train/activation_store.h"

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

DiskBackendOptions SmallPages() {
  DiskBackendOptions options;
  options.page_bytes = 256;  // force multi-page blobs with tiny payloads
  return options;
}

/// TakeInto a fresh string.
StatusOr<std::string> Take(DiskBackend& disk, std::int64_t key) {
  std::string blob;
  MEMO_RETURN_IF_ERROR(disk.TakeInto(key, &blob));
  return blob;
}

TEST(DiskBackendTest, MultiPageRoundTripIsBitExact) {
  DiskBackend disk(SmallPages());
  // 1000 bytes over 256-byte pages: three full pages + one short page.
  const std::string blob = MakeBlob(1000, 42);
  ASSERT_TRUE(disk.Put(5, blob).ok());
  EXPECT_TRUE(disk.Contains(5));
  EXPECT_EQ(disk.stats().resident_bytes, 1000);
  EXPECT_EQ(disk.stats().spill_pages, 4);

  auto taken = Take(disk, 5);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
  EXPECT_EQ(disk.stats().resident_bytes, 0);
  // Every page read back was verified against its stored checksum.
  EXPECT_EQ(disk.stats().checksum_verifications, 4);
}

TEST(DiskBackendTest, EmptyBlobRoundTrips) {
  DiskBackend disk(SmallPages());
  ASSERT_TRUE(disk.Put(1, std::string()).ok());
  auto taken = Take(disk, 1);
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
  ASSERT_TRUE(disk.Put(9, blob).ok());

  // Corrupt one byte of the second page in the spill file (raw payloads at
  // slot * page_bytes; the first Put gets slots 0..n in order).
  const int fd = ::open(disk.path().c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const char garbage = 'X';
  ASSERT_EQ(::pwrite(fd, &garbage, 1, disk.page_bytes() + 17), 1);
  ::close(fd);

  auto taken = Take(disk, 9);
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
  ASSERT_TRUE(disk.Put(2, buffer).ok());
  EXPECT_EQ(buffer, blob);
  EXPECT_TRUE(disk.Contains(2));
  // ...and TakeInto reads back into that buffer's storage.
  const char* storage = buffer.data();
  buffer.assign(700, 'x');
  ASSERT_TRUE(disk.TakeInto(2, &buffer).ok());
  EXPECT_EQ(buffer, blob);
  EXPECT_EQ(buffer.data(), storage);
  EXPECT_FALSE(disk.Contains(2));
}

TEST(DiskBackendTest, FreedSlotsAreReused) {
  DiskBackend disk(SmallPages());
  ASSERT_TRUE(disk.Put(1, MakeBlob(1024, 1)).ok());
  ASSERT_TRUE(Take(disk, 1).ok());
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
  EXPECT_GE(disk.stats().write_seconds, 0.009);
  ASSERT_TRUE(Take(disk, 1).ok());
  EXPECT_GE(disk.stats().read_seconds, 0.009);
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
  EXPECT_EQ(disk.stats().resident_bytes, 0);
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
  ASSERT_TRUE(disk.Put(1, blob).ok());
  EXPECT_EQ(FaultInjector::Global().failures("disk.page_write"), 1);
  auto taken = Take(disk, 1);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), blob);
}

TEST(DiskBackendTest, InjectedReadFaultFailsTakeCleanly) {
  InjectorGuard guard;
  std::string path;
  {
    DiskBackend disk(SmallPages());
    const std::string blob = MakeBlob(600, 9);
    ASSERT_TRUE(disk.Put(3, blob).ok());
    path = disk.path();
    FaultRule rule;
    rule.nth = 1;
    rule.permanent = true;
    FaultInjector::Global().Arm("disk.page_read", rule);
    const auto taken = Take(disk, 3);
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.status().code(), StatusCode::kInternal);
    EXPECT_NE(taken.status().ToString().find("injected"), std::string::npos)
        << taken.status().ToString();
    // The failed Take must not consume the blob: once the fault clears, a
    // retried Take returns the original bytes.
    FaultInjector::Global().Disarm("disk.page_read");
    EXPECT_TRUE(disk.Contains(3));
    auto retried = Take(disk, 3);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried.value(), blob);
  }
  // The fault must not leak the spill file past the backend's lifetime.
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "spill file " << path << " outlived its backend after a read fault";
}

// ---- The RAM tier and the routing between the tiers, which
// train::ActivationStore runs itself.

/// Five layers, so layers 0..2 swap and reach the stash tiers (the last two
/// stay in the rounding buffers, §4.1).
constexpr int kLayers = 5;
constexpr int kSwapped = 3;

/// One layer's activations at the shapes MiniGpt produces (seq rows, hidden
/// and ffn columns, per-row statistics as [s, 1], two heads' log-sum-exp
/// as [s, 2]). `seed` varies the values, so a blob restored into the wrong
/// layer would show.
train::LayerActivations MakeActs(std::uint64_t seed) {
  constexpr std::int64_t s = 8, h = 16, ffn = 32;
  Rng rng(seed);
  train::LayerActivations a;
  a.input = train::Tensor::Randn(s, h, 1.0, rng);
  a.ln1_out = train::Tensor::Randn(s, h, 1.0, rng);
  a.ln1_rstd = train::Tensor::Randn(s, 1, 1.0, rng);
  a.q = train::Tensor::Randn(s, h, 1.0, rng);
  a.k = train::Tensor::Randn(s, h, 1.0, rng);
  a.v = train::Tensor::Randn(s, h, 1.0, rng);
  a.attn_out = train::Tensor::Randn(s, h, 1.0, rng);
  a.attn_lse = train::Tensor::Randn(s, 2, 1.0, rng);
  a.proj_out = train::Tensor::Randn(s, h, 1.0, rng);
  a.ln2_out = train::Tensor::Randn(s, h, 1.0, rng);
  a.ln2_rstd = train::Tensor::Randn(s, 1, 1.0, rng);
  a.fc1_out = train::Tensor::Randn(s, ffn, 1.0, rng);
  a.gelu_out = train::Tensor::Randn(s, ffn, 1.0, rng);
  return a;
}

bool SameActs(const train::LayerActivations& a,
              const train::LayerActivations& b) {
  return a.input.ExactlyEquals(b.input) &&
         a.ln1_out.ExactlyEquals(b.ln1_out) &&
         a.ln1_rstd.ExactlyEquals(b.ln1_rstd) && a.q.ExactlyEquals(b.q) &&
         a.k.ExactlyEquals(b.k) && a.v.ExactlyEquals(b.v) &&
         a.attn_out.ExactlyEquals(b.attn_out) &&
         a.attn_lse.ExactlyEquals(b.attn_lse) &&
         a.proj_out.ExactlyEquals(b.proj_out) &&
         a.ln2_out.ExactlyEquals(b.ln2_out) &&
         a.ln2_rstd.ExactlyEquals(b.ln2_rstd) &&
         a.fc1_out.ExactlyEquals(b.fc1_out) &&
         a.gelu_out.ExactlyEquals(b.gelu_out);
}

/// A token-wise store at alpha 1: every row is kept, so Restore recomputes
/// nothing and must hand back exactly what Stash took.
struct TierStore {
  TierStore(const BackendOptions& backend, bool async)
      : store(train::ActivationPolicy::kTokenWise, 1.0, kLayers, async,
              backend) {}
  /// Forward's stash traffic: Stash every layer in order.
  void StashAll() {
    for (int layer = 0; layer < kLayers; ++layer) {
      ASSERT_TRUE(store.Stash(layer, MakeActs(layer)).ok()) << layer;
    }
  }
  /// Restores `layer`, checking every tensor came back exactly.
  void RestoreAndCheck(int layer) {
    StatusOr<train::LayerActivations> acts =
        store.Restore(layer, train::LayerParams{});
    ASSERT_TRUE(acts.ok()) << acts.status().ToString();
    EXPECT_TRUE(SameActs(*acts, MakeActs(layer))) << "layer " << layer;
    store.Recycle(layer, std::move(acts).value());
  }
  /// Backward's restore traffic, in backward order.
  void RestoreAll() {
    for (int layer = kLayers - 1; layer >= 0; --layer) RestoreAndCheck(layer);
  }
  /// One training step's stash traffic.
  void RoundTrip() {
    StashAll();
    RestoreAll();
  }
  train::ActivationStore store;
};

BackendOptions Tiers(BackendKind kind, std::int64_t ram_capacity_bytes) {
  BackendOptions backend;
  backend.kind = kind;
  backend.ram_capacity_bytes = ram_capacity_bytes;
  backend.disk = SmallPages();
  return backend;
}

/// Serialized bytes of one swapped layer's blob, the unit both tiers count.
std::int64_t BlobBytes() {
  TierStore ram(Tiers(BackendKind::kRam, 0), /*async=*/false);
  ram.RoundTrip();
  return ram.store.offload_stats().ram_tier.put_bytes / kSwapped;
}

/// Checks a finished round trip put `ram_blobs` of the swapped layers'
/// blobs in the RAM tier and the rest on disk, and took every one back.
void ExpectTierSplit(const train::OffloadStats& stats, std::int64_t blob,
                     int ram_blobs) {
  const std::int64_t pages = (blob + 255) / 256;
  const int disk_blobs = kSwapped - ram_blobs;
  EXPECT_EQ(stats.ram_tier.put_bytes, ram_blobs * blob);
  EXPECT_EQ(stats.ram_tier.take_bytes, ram_blobs * blob);
  // Forward stashes every layer before backward takes one back.
  EXPECT_EQ(stats.ram_tier.peak_resident_bytes, ram_blobs * blob);
  EXPECT_EQ(stats.ram_tier.resident_bytes, 0);
  EXPECT_EQ(stats.disk_tier.put_bytes, disk_blobs * blob);
  EXPECT_EQ(stats.disk_tier.take_bytes, disk_blobs * blob);
  EXPECT_EQ(stats.disk_tier.spill_pages, disk_blobs * pages);
  EXPECT_EQ(stats.disk_tier.checksum_verifications, disk_blobs * pages);
  EXPECT_EQ(stats.disk_tier.resident_bytes, 0);
}

// The suites below are named for the BackendKind whose tiers they drive:
// the store builds the tiers from BackendOptions itself.

TEST(RamBackendTest, RoundTripAndByteAccounting) {
  const std::int64_t blob = BlobBytes();
  TierStore ram(Tiers(BackendKind::kRam, 0), /*async=*/false);
  ram.StashAll();
  const TierStats mid = ram.store.offload_stats().ram_tier;
  EXPECT_EQ(mid.put_bytes, kSwapped * blob);
  EXPECT_EQ(mid.take_bytes, 0);
  EXPECT_EQ(mid.resident_bytes, kSwapped * blob);
  EXPECT_EQ(mid.peak_resident_bytes, kSwapped * blob);
  ram.RestoreAll();
  const train::OffloadStats end = ram.store.offload_stats();
  EXPECT_EQ(end.ram_tier.take_bytes, kSwapped * blob);
  EXPECT_EQ(end.ram_tier.resident_bytes, 0);
  EXPECT_EQ(end.ram_tier.peak_resident_bytes, kSwapped * blob);
  EXPECT_EQ(end.disk_tier.put_bytes, 0);
}

TEST(RamBackendTest, CapacityEnforced) {
  const std::int64_t blob = BlobBytes();
  // One byte short of room for the third blob, the paper's X_oohm.
  TierStore tiers(Tiers(BackendKind::kRam, 3 * blob - 1), /*async=*/false);
  ASSERT_TRUE(tiers.store.Stash(0, MakeActs(0)).ok());
  ASSERT_TRUE(tiers.store.Stash(1, MakeActs(1)).ok());
  const Status full = tiers.store.Stash(2, MakeActs(2));
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsOutOfHostMemory()) << full.ToString();
  // The refused blob left no trace in the accounting.
  const TierStats ram = tiers.store.offload_stats().ram_tier;
  EXPECT_EQ(ram.put_bytes, 2 * blob);
  EXPECT_EQ(ram.resident_bytes, 2 * blob);
  EXPECT_EQ(ram.peak_resident_bytes, 2 * blob);
}

TEST(RamBackendTest, ExactlyAtCapacityIsNotAnError) {
  const std::int64_t blob = BlobBytes();
  TierStore tiers(Tiers(BackendKind::kRam, 2 * blob), /*async=*/false);
  const auto resident = [&] {
    return tiers.store.offload_stats().ram_tier.resident_bytes;
  };
  ASSERT_TRUE(tiers.store.Stash(0, MakeActs(0)).ok());
  ASSERT_TRUE(tiers.store.Stash(1, MakeActs(1)).ok());
  EXPECT_EQ(resident(), 2 * blob);
  // Freeing makes room again: restoring layer 1 releases its blob.
  tiers.RestoreAndCheck(1);
  EXPECT_EQ(resident(), blob);
  ASSERT_TRUE(tiers.store.Stash(2, MakeActs(2)).ok());
  EXPECT_EQ(resident(), 2 * blob);
  tiers.RestoreAndCheck(2);
  tiers.RestoreAndCheck(0);
  EXPECT_EQ(resident(), 0);
}

TEST(TieredBackendTest, SpillsToDiskWhenRamFills) {
  const std::int64_t blob = BlobBytes();
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    // RAM first: layer 0 fills one and a half blobs' room by two thirds,
    // so layers 1 and 2 spill.
    TierStore tiers(Tiers(BackendKind::kTiered, blob + blob / 2), async);
    tiers.RoundTrip();
    ExpectTierSplit(tiers.store.offload_stats(), blob, /*ram_blobs=*/1);
  }
}

TEST(TieredBackendTest, UnlimitedRamNeverSpills) {
  InjectorGuard guard;
  const std::int64_t blob = BlobBytes();
  // A dead disk: a single spill would fail the step.
  FaultRule dead;
  dead.nth = 1;
  dead.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", dead);
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    TierStore tiers(Tiers(BackendKind::kTiered, 0), async);
    tiers.RoundTrip();
    ExpectTierSplit(tiers.store.offload_stats(), blob, /*ram_blobs=*/kSwapped);
  }
  EXPECT_EQ(FaultInjector::Global().calls("disk.page_write"), 0);
}

TEST(TieredBackendTest, OnDiskTellsWhereEachBlobLanded) {
  const std::int64_t blob = BlobBytes();
  // Inline, Stash(i) puts layer i's blob and Restore(i) takes it back, so
  // the tiers' resident bytes show where each blob is after each call.
  TierStore tiers(Tiers(BackendKind::kTiered, blob + blob / 2),
                  /*async=*/false);
  using Split = std::pair<std::int64_t, std::int64_t>;  // RAM, disk bytes
  const auto resident = [&] {
    const train::OffloadStats stats = tiers.store.offload_stats();
    return Split(stats.ram_tier.resident_bytes,
                 stats.disk_tier.resident_bytes);
  };
  ASSERT_TRUE(tiers.store.Stash(0, MakeActs(0)).ok());
  EXPECT_EQ(resident(), Split(blob, 0));  // fits in RAM
  ASSERT_TRUE(tiers.store.Stash(1, MakeActs(1)).ok());
  EXPECT_EQ(resident(), Split(blob, blob));  // spills
  ASSERT_TRUE(tiers.store.Stash(2, MakeActs(2)).ok());
  EXPECT_EQ(resident(), Split(blob, 2 * blob));
  tiers.RestoreAndCheck(2);
  EXPECT_EQ(resident(), Split(blob, blob));
  tiers.RestoreAndCheck(1);
  EXPECT_EQ(resident(), Split(blob, 0));
  tiers.RestoreAndCheck(0);
  EXPECT_EQ(resident(), Split(0, 0));
}

TEST(TieredBackendTest, PermanentDiskFaultQuarantinesTheDiskTier) {
  InjectorGuard guard;
  const std::int64_t blob = BlobBytes();
  const std::int64_t pages = (blob + 255) / 256;
  // Every page write the disk attempts fails: each page is tried as often
  // as its per-page retry policy, the default one, allows.
  const std::int64_t writes_per_put = pages * RetryPolicy{}.max_attempts;
  FaultRule dead;
  dead.nth = 1;
  dead.permanent = true;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (BackendKind kind : {BackendKind::kTiered, BackendKind::kDisk}) {
    const bool tiered = kind == BackendKind::kTiered;
    SCOPED_TRACE(tiered ? "tiered" : "disk");
    FaultInjector::Global().Reset();
    metrics.Reset();
    FaultInjector::Global().Arm("disk.page_write", dead);
    // A RAM tier smaller than one blob: the first swapped layer spills.
    TierStore tiers(Tiers(kind, blob / 2), /*async=*/false);
    const Status st = tiers.store.Stash(0, MakeActs(0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    // The whole-blob retry ran its three attempts either way.
    EXPECT_EQ(metrics.counter("retry.stash.put.retries")->value(), 2);
    const std::int64_t writes = FaultInjector::Global().calls("disk.page_write");
    if (tiered) {
      // The first attempt quarantined the tier; the retries failed fast
      // without touching the disk again.
      EXPECT_NE(st.ToString().find("quarantined"), std::string::npos)
          << st.ToString();
      EXPECT_EQ(metrics.counter("tiered.disk_quarantined")->value(), 1);
      EXPECT_EQ(writes, writes_per_put);
    } else {
      // kDisk has no other tier and keeps trying the device.
      EXPECT_EQ(st.ToString().find("quarantined"), std::string::npos)
          << st.ToString();
      EXPECT_EQ(metrics.counter("tiered.disk_quarantined")->value(), 0);
      EXPECT_EQ(writes, 3 * writes_per_put);
    }
    // The failure is sticky: the next Stash reports it too.
    EXPECT_EQ(tiers.store.Stash(1, MakeActs(1)).ToString(), st.ToString());
  }
}

TEST(DiskBackendTest, InjectedFaultReachesTheTieredDiskTier) {
  InjectorGuard guard;
  const std::int64_t blob = BlobBytes();
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);
  // Room for one blob: layer 0 stays in RAM and never meets the fault,
  // layer 1 spills into it.
  TierStore tiers(Tiers(BackendKind::kTiered, blob), /*async=*/false);
  ASSERT_TRUE(tiers.store.Stash(0, MakeActs(0)).ok());
  EXPECT_EQ(FaultInjector::Global().calls("disk.page_write"), 0);
  const Status st = tiers.store.Stash(1, MakeActs(1));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.ToString().find("injected"), std::string::npos)
      << st.ToString();
  EXPECT_GT(FaultInjector::Global().calls("disk.page_write"), 0);
  EXPECT_EQ(tiers.store.offload_stats().disk_tier.put_bytes, 0);
}

TEST(CreateBackendTest, FactoryBuildsEachKind) {
  const std::int64_t blob = BlobBytes();
  // The same options but the kind: with RAM unlimited, kRam and kTiered
  // keep every blob in RAM, and kDisk has no RAM tier to keep one in.
  const struct {
    BackendKind kind;
    int ram_blobs;
  } cases[] = {
      {BackendKind::kRam, kSwapped},
      {BackendKind::kDisk, 0},
      {BackendKind::kTiered, kSwapped},
  };
  for (const auto& c : cases) {
    for (bool async : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "kind " << static_cast<int>(c.kind)
                                        << (async ? ", async" : ""));
      TierStore tiers(Tiers(c.kind, 0), async);
      tiers.RoundTrip();
      ExpectTierSplit(tiers.store.offload_stats(), blob, c.ram_blobs);
    }
  }
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace memo::offload
