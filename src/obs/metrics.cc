#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/file_io.h"
#include "obs/json.h"

namespace memo::obs {

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

void MetricHistogram::Record(double value) {
  int bucket = 0;
  if (value > 1.0) {
    bucket = static_cast<int>(std::ceil(std::log2(value))) ;
    if (bucket < 1) bucket = 1;
    if (bucket > kBuckets - 1) bucket = kBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; emulate with a CAS loop for
  // toolchains that lower it poorly.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double MetricHistogram::BucketUpperBound(int i) {
  if (i <= 0) return 1.0;
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);  // 2^i
}

void MetricHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<MetricCounter>();
  return slot.get();
}

MetricGauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<MetricGauge>();
  return slot.get();
}

MetricHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<MetricHistogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n  \"");
    AppendJsonEscaped(name, &out);
    out.append("\":");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(c->value()));
    out.append(buf);
  }
  out.append("\n},\"gauges\":{");
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n  \"");
    AppendJsonEscaped(name, &out);
    out.append("\":");
    AppendDouble(g->value(), &out);
  }
  out.append("\n},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n  \"");
    AppendJsonEscaped(name, &out);
    out.append("\":{\"count\":");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(h->count()));
    out.append(buf);
    out.append(",\"sum\":");
    AppendDouble(h->sum(), &out);
    out.append(",\"buckets\":[");
    bool first_bucket = true;
    for (int i = 0; i < MetricHistogram::kBuckets; ++i) {
      const std::int64_t n = h->bucket(i);
      if (n == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.append("{\"le\":");
      const double le = MetricHistogram::BucketUpperBound(i);
      if (std::isinf(le)) {
        out.append("\"inf\"");
      } else {
        AppendDouble(le, &out);
      }
      out.append(",\"count\":");
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
      out.append(buf);
      out.append("}");
    }
    out.append("]}");
  }
  out.append("\n}}\n");
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path,
                                std::string* error) const {
  const std::string json = SnapshotJson();
  const Status written =
      WriteWholeFile(path, json, "metrics", WriteMode::kInPlace);
  if (!written.ok() && error != nullptr) *error = written.message();
  return written.ok();
}

}  // namespace memo::obs
