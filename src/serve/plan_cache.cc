#include "serve/plan_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace memo::serve {

namespace {

struct CacheMetrics {
  obs::MetricCounter* hits;
  obs::MetricCounter* misses;
  obs::MetricCounter* evictions;
  obs::MetricCounter* coalesced;
  obs::MetricGauge* resident_bytes;
};

CacheMetrics& Metrics() {
  static CacheMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return CacheMetrics{reg.counter("serve.cache.hit"),
                        reg.counter("serve.cache.miss"),
                        reg.counter("serve.cache.eviction"),
                        reg.counter("serve.cache.coalesced"),
                        reg.gauge("serve.cache.resident_bytes")};
  }();
  return m;
}

std::int64_t ChargeFor(const CachedPlan& plan) {
  // Payload dominates; the constant covers the struct, list node, and map
  // slot so budgets stay honest for many tiny entries.
  return static_cast<std::int64_t>(plan.payload.size()) +
         static_cast<std::int64_t>(sizeof(CachedPlan)) + 128;
}

}  // namespace

PlanCache::PlanCache(const PlanCacheOptions& options)
    : shard_budget_(options.capacity_bytes > 0
                        ? std::max<std::int64_t>(
                              1, options.capacity_bytes / kShards)
                        : 0) {}

void PlanCache::InsertLocked(Shard& shard, std::uint64_t key,
                             const std::shared_ptr<CachedPlan>& value) {
  if (shard_budget_ <= 0 || value == nullptr) return;
  if (value->charged_bytes > shard_budget_) return;  // oversize: serve only
  auto existing = shard.index.find(key);
  if (existing != shard.index.end()) {
    // A racing leader already published this key (possible after Clear());
    // keep the resident entry, just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, existing->second);
    return;
  }
  shard.lru.emplace_front(key, value);
  shard.index.emplace(key, shard.lru.begin());
  shard.resident_bytes += value->charged_bytes;
  std::int64_t delta = value->charged_bytes;
  while (shard.resident_bytes > shard_budget_ && !shard.lru.empty()) {
    auto& victim = shard.lru.back();
    shard.resident_bytes -= victim.second->charged_bytes;
    delta -= victim.second->charged_bytes;
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    ++shard.evictions;
    Metrics().evictions->Increment();
  }
  const std::int64_t total =
      resident_total_.fetch_add(delta, std::memory_order_relaxed) + delta;
  Metrics().resident_bytes->Set(static_cast<double>(total));
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  Metrics().hits->Increment();
  return it->second->second;
}

std::shared_ptr<const CachedPlan> PlanCache::GetOrCompute(
    std::uint64_t key, const ComputeFn& compute, bool* cache_hit) {
  Shard& shard = shard_for(key);
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      Metrics().hits->Increment();
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second->second;
    }
    auto inflight_it = shard.inflight.find(key);
    if (inflight_it != shard.inflight.end()) {
      // Follower: another caller is solving this exact request right now.
      // Wait for it rather than paying for a duplicate solve.
      flight = inflight_it->second;
      ++shard.coalesced;
      Metrics().coalesced->Increment();
      shard.done_cv.wait(lock, [&] { return flight->done; });
      if (cache_hit != nullptr) *cache_hit = true;
      return flight->value;
    }
    // Leader: register the in-flight marker and solve outside the lock.
    flight = std::make_shared<Inflight>();
    shard.inflight.emplace(key, flight);
    ++shard.misses;
    Metrics().misses->Increment();
  }

  std::shared_ptr<CachedPlan> value;
  try {
    value = compute();
  } catch (...) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
    flight->done = true;
    shard.done_cv.notify_all();
    throw;
  }
  if (value != nullptr && value->charged_bytes <= 0) {
    value->charged_bytes = ChargeFor(*value);
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
    flight->value = value;
    flight->done = true;
    InsertLocked(shard, key, value);
  }
  shard.done_cv.notify_all();
  if (cache_hit != nullptr) *cache_hit = false;
  return value;
}

std::vector<std::pair<std::uint64_t, std::shared_ptr<const CachedPlan>>>
PlanCache::Entries() const {
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const CachedPlan>>>
      entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& entry : shard.lru) {
      entries.emplace_back(entry.first, entry.second);
    }
  }
  return entries;
}

void PlanCache::Restore(std::uint64_t key,
                        const std::shared_ptr<CachedPlan>& plan) {
  if (plan == nullptr) return;
  if (plan->charged_bytes <= 0) plan->charged_bytes = ChargeFor(*plan);
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, key, plan);
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    resident_total_.fetch_sub(shard.resident_bytes,
                              std::memory_order_relaxed);
    shard.lru.clear();
    shard.index.clear();
    shard.resident_bytes = 0;
  }
  Metrics().resident_bytes->Set(
      static_cast<double>(resident_total_.load(std::memory_order_relaxed)));
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
    total.coalesced += shard.coalesced;
    total.resident_bytes += shard.resident_bytes;
    total.entries += static_cast<std::int64_t>(shard.lru.size());
  }
  return total;
}

}  // namespace memo::serve
