#ifndef MEMO_SERVE_PLAN_CACHE_H_
#define MEMO_SERVE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan_request.h"

namespace memo::serve {

/// One cached answer: the structured result plus its deterministic
/// serialized form. The payload is what the wire protocol ships and what
/// the bit-identity contract is stated over: a warm hit returns the exact
/// bytes a cold solve of the same PlanRequest produced.
struct CachedPlan {
  core::PlanResult result;
  std::string payload;
  /// Bytes this entry charges against the cache budget (payload + struct
  /// overhead; set by the cache on insert).
  std::int64_t charged_bytes = 0;
};

struct PlanCacheOptions {
  /// Total byte budget across all shards; the LRU tail is evicted per shard
  /// until its proportional share is respected. <= 0 disables caching
  /// entirely (every lookup is a miss, nothing is retained).
  std::int64_t capacity_bytes = 32ll << 20;
};

/// Sharded LRU cache keyed by PlanRequest fingerprint, with single-flight
/// deduplication: when N identical requests arrive concurrently, one caller
/// (the leader) computes while the other N-1 block on the shard's condition
/// variable and receive the leader's result — the expensive LP/DSA solve
/// runs once. Metrics land in the global MetricsRegistry under
/// serve.cache.* (hit/miss/eviction/coalesced counters, resident-bytes
/// gauge) and are mirrored in stats() for tests that cannot rely on the
/// process-global registry being quiescent.
class PlanCache {
 public:
  using ComputeFn = std::function<std::shared_ptr<CachedPlan>()>;

  /// Independent LRU shards, each with capacity_bytes / kShards. Keys are
  /// distributed by the upper fingerprint bits, so one hot shard lock never
  /// serializes the whole solver pool (DESIGN.md §12).
  static constexpr int kShards = 8;

  explicit PlanCache(const PlanCacheOptions& options = {});

  /// Returns the cached plan for `key`, computing it via `compute` on a
  /// miss (single-flight: concurrent callers with the same key share one
  /// compute). `*cache_hit` reports whether this caller was served from the
  /// cache (followers of an in-flight compute count as hits: they did not
  /// pay for a solve). Entries larger than a shard's budget are returned
  /// but not retained.
  std::shared_ptr<const CachedPlan> GetOrCompute(std::uint64_t key,
                                                 const ComputeFn& compute,
                                                 bool* cache_hit = nullptr);

  /// Cache-only probe: refreshes LRU recency and counts a hit when found,
  /// never computes. An absent key is NOT counted as a miss (misses are
  /// attributed to the compute path in GetOrCompute), so a probe-then-solve
  /// sequence records each logical request exactly once.
  std::shared_ptr<const CachedPlan> Lookup(std::uint64_t key);

  /// Drops every resident entry (in-flight computes are unaffected and
  /// will insert their results afterwards).
  void Clear();

  /// Every resident (key, plan) pair — the export side of the warm-restart
  /// snapshot. Order is per-shard MRU-first; no recency is refreshed and no
  /// hit is counted.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const CachedPlan>>>
  Entries() const;

  /// Inserts `plan` under `key` as if it had just been computed: the byte
  /// budget is charged and LRU tails evict as usual. Hit/miss counters are
  /// untouched (restored entries were paid for in a previous life). The
  /// import side of the warm-restart snapshot.
  void Restore(std::uint64_t key, const std::shared_ptr<CachedPlan>& plan);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    /// Requests that were answered by waiting on another caller's
    /// in-flight solve instead of solving themselves.
    std::int64_t coalesced = 0;
    std::int64_t resident_bytes = 0;
    std::int64_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Inflight {
    bool done = false;
    std::shared_ptr<CachedPlan> value;  // may be null if compute threw
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable done_cv;
    /// Front = most recent. Entries own the plan; the map indexes by key.
    std::list<std::pair<std::uint64_t, std::shared_ptr<CachedPlan>>> lru;
    std::unordered_map<
        std::uint64_t,
        std::list<std::pair<std::uint64_t,
                            std::shared_ptr<CachedPlan>>>::iterator>
        index;
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight;
    std::int64_t resident_bytes = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t coalesced = 0;
  };

  Shard& shard_for(std::uint64_t key) {
    return shards_[(key >> 48) % kShards];
  }

  /// Inserts under the shard lock, evicting the LRU tail while over this
  /// shard's proportional budget. Oversize values are not retained.
  void InsertLocked(Shard& shard, std::uint64_t key,
                    const std::shared_ptr<CachedPlan>& value);

  std::int64_t shard_budget_ = 0;
  /// Sum of per-shard resident_bytes, maintained without taking every shard
  /// lock so the serve.cache.resident_bytes gauge can be refreshed from
  /// inside a single shard's critical section.
  std::atomic<std::int64_t> resident_total_{0};
  std::array<Shard, kShards> shards_;
};

}  // namespace memo::serve

#endif  // MEMO_SERVE_PLAN_CACHE_H_
