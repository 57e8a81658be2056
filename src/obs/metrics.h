#ifndef MEMO_OBS_METRICS_H_
#define MEMO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace memo::obs {

/// Monotonic counter (e.g. bytes spilled to disk). Always on: one relaxed
/// atomic add per increment, so instrumented hot paths stay cheap without a
/// runtime switch.
class MetricCounter {
 public:
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins gauge (e.g. current resident bytes, overlap efficiency).
class MetricGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram with a fixed power-of-two bucket layout: bucket 0 counts
/// samples <= 1, bucket i (1 <= i < 63) counts samples in (2^(i-1), 2^i],
/// and the last bucket catches everything larger. The layout is identical
/// for every histogram, so snapshots from different runs line up
/// bucket-for-bucket (the fixed-layout property regression tests rely on).
class MetricHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double value);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket `i` (inclusive); +inf for the last bucket.
  static double BucketUpperBound(int i);
  void Reset();

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// RAII latency sampler: records the scope's elapsed wall time, in
/// microseconds, into a MetricHistogram on destruction. The pow2 bucket
/// layout makes the recorded samples directly comparable across runs
/// (p50/p99 read off the same bucket edges). A null histogram disables the
/// timer (no clock reads), so call sites can make sampling conditional
/// without branching at every exit path.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(MetricHistogram* histogram)
      : histogram_(histogram),
        start_(histogram == nullptr
                   ? std::chrono::steady_clock::time_point{}
                   : std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    if (histogram_ == nullptr) return;
    histogram_->Record(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  MetricHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Process-wide metric registry. Handles are created on first lookup and
/// stay valid for the process lifetime, so call sites cache the pointer
/// (typically in a function-local static) and pay only the atomic on the
/// hot path. Reset() zeroes every metric but keeps all handles valid.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricCounter* counter(const std::string& name);
  MetricGauge* gauge(const std::string& name);
  MetricHistogram* histogram(const std::string& name);

  /// Zeroes every registered metric (handles stay valid).
  void Reset();

  /// JSON snapshot:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,
  ///                          "buckets":[{"le":2,"count":3},...]}}}
  /// Histogram bucket entries are emitted for non-empty buckets only.
  std::string SnapshotJson() const;

  /// Writes SnapshotJson() to `path` in place (memo::WriteWholeFile);
  /// false + `*error` on failure.
  bool WriteJson(const std::string& path, std::string* error = nullptr) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;
};

}  // namespace memo::obs

#endif  // MEMO_OBS_METRICS_H_
