#include <gtest/gtest.h>

#include <vector>

#include "alloc/caching_allocator.h"
#include "alloc/trace_replay.h"
#include "common/rng.h"
#include "common/units.h"
#include "model/trace_gen.h"

namespace memo::alloc {
namespace {

CachingAllocator::Options SmallDevice(std::int64_t capacity) {
  CachingAllocator::Options options;
  options.capacity_bytes = capacity;
  return options;
}

TEST(CachingAllocatorTest, AllocateAndFreeRoundTrip) {
  CachingAllocator a(SmallDevice(kGiB));
  auto h = a.Allocate(10 * kMiB);
  ASSERT_TRUE(h.ok());
  EXPECT_GE(a.stats().allocated_bytes, 10 * kMiB);
  EXPECT_GE(a.stats().reserved_bytes, a.stats().allocated_bytes);
  EXPECT_TRUE(a.Free(h.value()).ok());
  EXPECT_EQ(a.stats().allocated_bytes, 0);
  // Freed memory stays cached (reserved) like PyTorch.
  EXPECT_GT(a.stats().reserved_bytes, 0);
}

TEST(CachingAllocatorTest, RejectsBadRequests) {
  CachingAllocator a(SmallDevice(kGiB));
  EXPECT_FALSE(a.Allocate(0).ok());
  EXPECT_FALSE(a.Allocate(-5).ok());
  EXPECT_FALSE(a.Free(12345).ok());
}

TEST(CachingAllocatorTest, SmallRequestsShareA2MiBSegment) {
  CachingAllocator a(SmallDevice(kGiB));
  auto h1 = a.Allocate(100 * 1024);
  auto h2 = a.Allocate(100 * 1024);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  // Both fit in one 2 MiB small-pool segment: exactly one device malloc.
  EXPECT_EQ(a.stats().num_device_mallocs, 1);
  EXPECT_EQ(a.stats().reserved_bytes, 2 * kMiB);
}

TEST(CachingAllocatorTest, CachedBlockIsReused) {
  CachingAllocator a(SmallDevice(kGiB));
  auto h = a.Allocate(64 * kMiB);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(a.Free(h.value()).ok());
  const std::int64_t mallocs_before = a.stats().num_device_mallocs;
  auto h2 = a.Allocate(64 * kMiB);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(a.stats().num_device_mallocs, mallocs_before);  // cache hit
}

TEST(CachingAllocatorTest, SplitAndCoalesce) {
  CachingAllocator a(SmallDevice(kGiB));
  // 20 MiB large-pool segment serves a 4 MiB request, splitting off 16 MiB.
  auto h1 = a.Allocate(4 * kMiB);
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(a.stats().reserved_bytes, 20 * kMiB);
  EXPECT_EQ(a.num_free_blocks(), 1);
  EXPECT_EQ(a.largest_free_block(), 16 * kMiB);
  // Second request reuses the remainder without a new segment.
  auto h2 = a.Allocate(8 * kMiB);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(a.stats().num_device_mallocs, 1);
  // Free both: blocks coalesce back into one 20 MiB block.
  ASSERT_TRUE(a.Free(h1.value()).ok());
  ASSERT_TRUE(a.Free(h2.value()).ok());
  EXPECT_EQ(a.num_free_blocks(), 1);
  EXPECT_EQ(a.largest_free_block(), 20 * kMiB);
}

TEST(CachingAllocatorTest, OomWhenCapacityExceeded) {
  CachingAllocator a(SmallDevice(100 * kMiB));
  auto h = a.Allocate(60 * kMiB);
  ASSERT_TRUE(h.ok());
  auto h2 = a.Allocate(60 * kMiB);
  EXPECT_FALSE(h2.ok());
  EXPECT_TRUE(h2.status().IsOutOfMemory());
}

TEST(CachingAllocatorTest, ReorgFlushesCacheAndRetries) {
  CachingAllocator a(SmallDevice(100 * kMiB));
  // Fill with one 60 MiB block, free it (stays cached), then ask for 80 MiB:
  // the allocator must flush the cached segment (a reorg) to satisfy it.
  auto h = a.Allocate(60 * kMiB);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(a.Free(h.value()).ok());
  EXPECT_EQ(a.stats().reserved_bytes, 60 * kMiB);
  auto h2 = a.Allocate(80 * kMiB);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(a.stats().num_reorg_events, 1);
  EXPECT_EQ(a.stats().reorg_bytes_flushed, 60 * kMiB);
  EXPECT_EQ(a.stats().reserved_bytes, 80 * kMiB);
}

TEST(CachingAllocatorTest, FragmentationBlocksLargeRequestDespiteFreeBytes) {
  // The Fig. 1a pathology: plenty of reserved-but-unallocated bytes, yet a
  // large contiguous request cannot be served without a reorg, and if the
  // fragmented segments are pinned by live blocks, not even then.
  CachingAllocator a(SmallDevice(200 * kMiB));
  // Allocate ten 16 MiB blocks in their own segments, then free every other
  // one: 80 MiB free total but no contiguous 32 MiB.
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 10; ++i) {
    auto h = a.Allocate(16 * kMiB);
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(a.Free(handles[i]).ok());
  }
  EXPECT_EQ(a.stats().reserved_bytes, 160 * kMiB);
  EXPECT_EQ(a.stats().allocated_bytes, 80 * kMiB);
  // A 48 MiB request: free bytes exist (80 MiB + 40 MiB unreserved) but only
  // via reorg (flushing the 5 fully-free 16 MiB segments).
  auto big = a.Allocate(48 * kMiB);
  ASSERT_TRUE(big.ok());
  EXPECT_GE(a.stats().num_reorg_events, 1);
}

TEST(CachingAllocatorTest, EmptyCacheOnlyReleasesFullyFreeSegments) {
  CachingAllocator a(SmallDevice(kGiB));
  auto h1 = a.Allocate(4 * kMiB);  // splits a 20 MiB segment
  ASSERT_TRUE(h1.ok());
  // The 16 MiB remainder is free but shares a segment with a live block.
  EXPECT_EQ(a.EmptyCache(), 0);
  ASSERT_TRUE(a.Free(h1.value()).ok());
  EXPECT_EQ(a.EmptyCache(), 20 * kMiB);
  EXPECT_EQ(a.stats().reserved_bytes, 0);
}

TEST(CachingAllocatorTest, HistoryRecordsAllocatedVsReserved) {
  CachingAllocator::Options options = SmallDevice(kGiB);
  options.record_history = true;
  CachingAllocator a(options);
  auto h1 = a.Allocate(4 * kMiB);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(a.Free(h1.value()).ok());
  ASSERT_EQ(a.history().size(), 2u);
  EXPECT_GE(a.history()[0].reserved_bytes, a.history()[0].allocated_bytes);
  EXPECT_EQ(a.history()[1].allocated_bytes, 0);
  EXPECT_GT(a.history()[1].reserved_bytes, 0);
}

TEST(CachingAllocatorTest, FragmentationIndexTracksShattering) {
  CachingAllocator a(SmallDevice(kGiB));
  EXPECT_DOUBLE_EQ(a.FragmentationIndex(), 0.0);  // nothing cached

  // One freed block: free space is contiguous, index 0.
  auto h = a.Allocate(16 * kMiB);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(a.Free(h.value()).ok());
  EXPECT_NEAR(a.FragmentationIndex(), 0.0, 1e-9);

  // Alternate-free pattern across discrete segments shatters the cache.
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 8; ++i) {
    auto hi = a.Allocate(16 * kMiB);
    ASSERT_TRUE(hi.ok());
    handles.push_back(hi.value());
  }
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(a.Free(handles[i]).ok());
  }
  EXPECT_GT(a.FragmentationIndex(), 0.5);
  EXPECT_EQ(a.free_bytes(),
            a.stats().reserved_bytes - a.stats().allocated_bytes);
}

TEST(ExpandableSegmentsTest, GrowsOneSegmentInGranules) {
  CachingAllocator::Options options = SmallDevice(kGiB);
  options.expandable_segments = true;
  CachingAllocator a(options);
  auto h1 = a.Allocate(3 * kMiB);
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(a.stats().reserved_bytes, 4 * kMiB);  // 2 MiB granules
  auto h2 = a.Allocate(3 * kMiB);
  ASSERT_TRUE(h2.ok());
  // Grew the same segment rather than mapping a new discrete one.
  EXPECT_EQ(a.stats().reserved_bytes, 8 * kMiB);
}

TEST(ExpandableSegmentsTest, AvoidsFragmentationReorg) {
  // The scenario where the fixed-segment allocator must reorganize
  // (FragmentationBlocksLargeRequestDespiteFreeBytes): with expandable
  // segments the free neighbours coalesce inside the single segment and a
  // large request is served without flushing anything.
  CachingAllocator::Options options = SmallDevice(200 * kMiB);
  options.expandable_segments = true;
  CachingAllocator a(options);
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 10; ++i) {
    auto h = a.Allocate(16 * kMiB);
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(a.Free(handles[i]).ok());
  }
  auto big = a.Allocate(36 * kMiB);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(a.stats().num_reorg_events, 0);
}

TEST(ExpandableSegmentsTest, EmptyCacheUnmapsFreeTail) {
  CachingAllocator::Options options = SmallDevice(kGiB);
  options.expandable_segments = true;
  CachingAllocator a(options);
  auto h1 = a.Allocate(8 * kMiB);
  auto h2 = a.Allocate(8 * kMiB);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(a.Free(h2.value()).ok());  // free tail
  const std::int64_t reserved_before = a.stats().reserved_bytes;
  const std::int64_t released = a.EmptyCache();
  EXPECT_GT(released, 0);
  EXPECT_EQ(a.stats().reserved_bytes, reserved_before - released);
  // The still-live head block is untouched.
  EXPECT_TRUE(a.Free(h1.value()).ok());
}

TEST(ExpandableSegmentsTest, StillOomsAtTrueCapacity) {
  CachingAllocator::Options options = SmallDevice(64 * kMiB);
  options.expandable_segments = true;
  CachingAllocator a(options);
  auto h = a.Allocate(48 * kMiB);
  ASSERT_TRUE(h.ok());
  auto h2 = a.Allocate(32 * kMiB);
  EXPECT_FALSE(h2.ok());
  EXPECT_TRUE(h2.status().IsOutOfMemory());
}

class ExpandablePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpandablePropertyTest, RandomStreamInvariants) {
  Rng rng(GetParam() * 17);
  CachingAllocator::Options options = SmallDevice(256 * kMiB);
  options.expandable_segments = true;
  CachingAllocator a(options);
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.55) {
      const std::int64_t bytes = rng.NextDouble() < 0.7
                                     ? rng.NextInRange(256, 512 * 1024)
                                     : rng.NextInRange(1, 24) * kMiB;
      auto h = a.Allocate(bytes);
      if (h.ok()) live.push_back(h.value());
    } else {
      const std::size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(a.Free(live[idx]).ok());
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_GE(a.stats().reserved_bytes, a.stats().allocated_bytes);
    ASSERT_LE(a.stats().reserved_bytes, 256 * kMiB);
  }
  for (std::uint64_t h : live) ASSERT_TRUE(a.Free(h).ok());
  EXPECT_EQ(a.stats().allocated_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpandablePropertyTest, ::testing::Range(1, 7));

// Property test: under random malloc/free streams the allocator never
// corrupts its invariants (allocated <= reserved <= capacity; frees always
// succeed; coalescing keeps block counts bounded).
class CachingAllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CachingAllocatorPropertyTest, RandomStreamInvariants) {
  Rng rng(GetParam());
  CachingAllocator a(SmallDevice(256 * kMiB));
  std::vector<std::pair<std::uint64_t, std::int64_t>> live;
  std::int64_t live_bytes = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.NextDouble() < 0.55;
    if (do_alloc) {
      // Mix of small and large requests, biased small.
      const std::int64_t bytes =
          rng.NextDouble() < 0.7
              ? rng.NextInRange(256, 512 * 1024)
              : rng.NextInRange(1, 24) * kMiB;
      auto h = a.Allocate(bytes);
      if (h.ok()) {
        live.emplace_back(h.value(), bytes);
        live_bytes += bytes;
      } else {
        EXPECT_TRUE(h.status().IsOutOfMemory());
      }
    } else {
      const std::size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(a.Free(live[idx].first).ok());
      live_bytes -= live[idx].second;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_GE(a.stats().allocated_bytes, live_bytes);  // rounding slack
    ASSERT_GE(a.stats().reserved_bytes, a.stats().allocated_bytes);
    ASSERT_LE(a.stats().reserved_bytes, 256 * kMiB);
  }
  for (auto& [h, bytes] : live) {
    ASSERT_TRUE(a.Free(h).ok());
  }
  EXPECT_EQ(a.stats().allocated_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachingAllocatorPropertyTest,
                         ::testing::Range(1, 9));

TEST(TraceReplayTest, ReplaysRealLayerTrace) {
  model::ModelConfig m = model::Gpt7B();
  m.num_layers = 4;
  model::TraceGenOptions options;
  options.seq_local = 8 * kSeqK;
  options.tensor_parallel = 4;
  options.mode = model::ActivationMode::kRetainAll;
  const model::ModelTrace trace = model::GenerateModelTrace(m, options);

  CachingAllocator::Options dev;
  dev.capacity_bytes = 80 * kGiB;
  const ReplayResult result = ReplayTrace(trace.requests, dev);
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.failed_index, -1);
  EXPECT_GE(result.stats.peak_allocated_bytes, trace.MaxLiveBytes());
  EXPECT_EQ(result.stats.allocated_bytes, 0);  // trace is balanced
}

TEST(TraceReplayTest, ReportsOomIndexOnTightDevice) {
  model::ModelConfig m = model::Gpt7B();
  m.num_layers = 8;
  model::TraceGenOptions options;
  options.seq_local = 64 * kSeqK;
  options.tensor_parallel = 1;
  options.mode = model::ActivationMode::kRetainAll;
  const model::ModelTrace trace = model::GenerateModelTrace(m, options);

  CachingAllocator::Options dev;
  dev.capacity_bytes = trace.MaxLiveBytes() / 2;
  const ReplayResult result = ReplayTrace(trace.requests, dev);
  EXPECT_TRUE(result.status.IsOutOfMemory());
  EXPECT_GE(result.failed_index, 0);
}

TEST(TraceReplayTest, OomUnwindsEverythingButTheStaticBytes) {
  // ReplayTrace runs the requests through ReplayTraceInto, so an OOM frees
  // the live handles and leaves only the model state allocated.
  model::ModelConfig m = model::Gpt7B();
  m.num_layers = 8;
  model::TraceGenOptions options;
  options.seq_local = 64 * kSeqK;
  options.mode = model::ActivationMode::kRetainAll;
  const model::ModelTrace trace = model::GenerateModelTrace(m, options);

  CachingAllocator::Options dev;
  dev.capacity_bytes = trace.MaxLiveBytes() / 2;
  const std::int64_t static_bytes = 64 * kMiB;
  const ReplayResult result = ReplayTrace(trace.requests, dev, static_bytes);
  ASSERT_TRUE(result.status.IsOutOfMemory());
  EXPECT_GE(result.failed_index, 0);
  EXPECT_EQ(result.stats.allocated_bytes, static_bytes);
}

TEST(TraceReplayTest, StaticBytesReduceHeadroom) {
  model::ModelConfig m = model::Gpt7B();
  m.num_layers = 2;
  model::TraceGenOptions options;
  options.seq_local = 8 * kSeqK;
  options.tensor_parallel = 4;
  options.mode = model::ActivationMode::kRetainAll;
  const model::ModelTrace trace = model::GenerateModelTrace(m, options);

  CachingAllocator::Options dev;
  dev.capacity_bytes = trace.MaxLiveBytes() + 4 * kGiB;
  EXPECT_TRUE(ReplayTrace(trace.requests, dev).status.ok());
  EXPECT_FALSE(ReplayTrace(trace.requests, dev, /*static_bytes=*/
                           dev.capacity_bytes - trace.MaxLiveBytes() / 4)
                   .status.ok());
}

}  // namespace
}  // namespace memo::alloc
