// PlanCache contracts: LRU eviction order under the byte budget,
// single-flight coalescing (N concurrent identical requests -> exactly one
// compute), bit-identity of cached payloads, and stats accounting. The
// concurrency sections also run in the tsan leg (tools/
// sanitizer_check.cmake), which is where the lock discipline is actually
// exercised.

#include "serve/plan_cache.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using memo::serve::CachedPlan;
using memo::serve::PlanCache;
using memo::serve::PlanCacheOptions;

/// A plan whose charge is exactly `bytes` (bypasses the automatic payload
/// sizing so budgets in tests are round numbers).
std::shared_ptr<CachedPlan> PlanOfSize(std::int64_t bytes,
                                       const std::string& payload = "x") {
  auto plan = std::make_shared<CachedPlan>();
  plan->payload = payload;
  plan->charged_bytes = bytes;
  return plan;
}

/// A cache whose shard 0, where every key below 2^48 lands, holds
/// `capacity` bytes: deterministic LRU order for these tests.
PlanCacheOptions SingleShard(std::int64_t capacity) {
  PlanCacheOptions options;
  options.capacity_bytes = capacity * PlanCache::kShards;
  return options;
}

TEST(PlanCacheTest, HitReturnsTheInsertedPlanWithoutRecomputing) {
  PlanCache cache(SingleShard(1 << 20));
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return PlanOfSize(100, "payload-a");
  };
  bool hit = true;
  const auto cold = cache.GetOrCompute(1, compute, &hit);
  EXPECT_FALSE(hit);
  const auto warm = cache.GetOrCompute(1, compute, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  // Same entry, byte-identical payload.
  EXPECT_EQ(cold.get(), warm.get());
  EXPECT_EQ(cold->payload, warm->payload);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedFirstUnderByteBudget) {
  // Budget fits exactly three 100-byte entries.
  PlanCache cache(SingleShard(300));
  for (std::uint64_t key : {1, 2, 3}) {
    cache.GetOrCompute(key, [&] { return PlanOfSize(100); });
  }
  EXPECT_EQ(cache.stats().entries, 3);

  // Touch 1: recency order (most->least) becomes 1, 3, 2.
  EXPECT_NE(cache.Lookup(1), nullptr);

  // Inserting 4 must evict 2 (the LRU tail), not 1 or 3.
  cache.GetOrCompute(4, [&] { return PlanOfSize(100); });
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_NE(cache.Lookup(4), nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 300);

  // A 250-byte entry forces three more evictions (3, then 1, then 4 in LRU
  // order) before the shard is back under budget.
  cache.GetOrCompute(5, [&] { return PlanOfSize(250); });
  EXPECT_EQ(cache.stats().evictions, 4);
  EXPECT_LE(cache.stats().resident_bytes, 300);
  EXPECT_NE(cache.Lookup(5), nullptr);
}

TEST(PlanCacheTest, OversizeEntriesAreServedButNotRetained) {
  PlanCache cache(SingleShard(100));
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return PlanOfSize(1000);
  };
  const auto first = cache.GetOrCompute(9, compute);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  // Not cached: the next request recomputes.
  cache.GetOrCompute(9, compute);
  EXPECT_EQ(computes, 2);
}

TEST(PlanCacheTest, ZeroCapacityDisablesRetentionEntirely) {
  PlanCache cache(SingleShard(0));
  int computes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto plan =
        cache.GetOrCompute(7, [&] { ++computes; return PlanOfSize(10); });
    ASSERT_NE(plan, nullptr);
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(PlanCacheTest, ClearDropsEntriesAndResetsResidency) {
  PlanCache cache(SingleShard(1 << 20));
  cache.GetOrCompute(1, [&] { return PlanOfSize(128); });
  cache.GetOrCompute(2, [&] { return PlanOfSize(128); });
  EXPECT_EQ(cache.stats().entries, 2);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(PlanCacheTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  PlanCache cache(SingleShard(1 << 20));
  constexpr int kThreads = 8;

  // The leader's compute blocks until every other thread has had time to
  // arrive at the same key, so the followers genuinely coalesce instead of
  // racing past a finished entry.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> computes{0};
  std::atomic<int> arrived{0};

  const auto compute = [&] {
    computes.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return PlanOfSize(64, "solved-once");
  };

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  std::vector<char> hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      bool hit = false;
      results[t] = cache.GetOrCompute(42, compute, &hit);
      hits[t] = hit ? 1 : 0;
    });
  }
  // Wait until all threads are at least launched into GetOrCompute, then
  // give followers a moment to park on the condition variable before
  // releasing the leader.
  while (arrived.load() < kThreads) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1) << "the solve must run exactly once";
  int hit_count = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t]->payload, "solved-once");
    EXPECT_EQ(results[t].get(), results[0].get());
    hit_count += hits[t];
  }
  // Exactly one caller (the leader) paid for the solve.
  EXPECT_EQ(hit_count, kThreads - 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced + stats.hits, kThreads - 1);
}

TEST(PlanCacheTest, ShardedCacheIsConsistentUnderConcurrentMixedLoad) {
  PlanCacheOptions options;
  options.capacity_bytes = 64 * 1024;
  PlanCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        // Spread keys across the fingerprint space so all shards are hit.
        const std::uint64_t key =
            (static_cast<std::uint64_t>((t + round) % kKeys) << 48) | 0x9e37;
        const auto plan = cache.GetOrCompute(key, [&] {
          return PlanOfSize(512, "key-" + std::to_string(key));
        });
        if (plan == nullptr ||
            plan->payload != "key-" + std::to_string(key)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.stats().resident_bytes, 64 * 1024);
}

}  // namespace
