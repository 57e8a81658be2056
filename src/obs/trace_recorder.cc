#include "obs/trace_recorder.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/file_io.h"
#include "obs/json.h"

namespace memo::obs {

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendEventJson(int tid, const TraceEvent& e, std::string* out) {
  const int effective_tid = e.tid_override >= 0 ? e.tid_override : tid;
  char buf[64];
  out->append("{\"name\":\"");
  AppendJsonEscaped(e.effective_name(), out);
  out->append("\",\"cat\":\"");
  AppendJsonEscaped(e.category, out);
  out->append("\",\"ph\":\"");
  out->push_back(e.phase);
  out->append("\",\"pid\":1,\"tid\":");
  std::snprintf(buf, sizeof(buf), "%d", effective_tid);
  out->append(buf);
  out->append(",\"ts\":");
  std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
  out->append(buf);
  if (e.phase == 'X') {
    out->append(",\"dur\":");
    std::snprintf(buf, sizeof(buf), "%.3f", e.dur_us);
    out->append(buf);
  }
  if (e.phase == 'i') {
    out->append(",\"s\":\"t\"");
  }
  bool has_args = e.phase == 'C' || e.arg_name != nullptr || !e.detail.empty();
  if (has_args) {
    out->append(",\"args\":{");
    bool first = true;
    if (e.phase == 'C') {
      out->append("\"value\":");
      std::snprintf(buf, sizeof(buf), "%.3f", e.value);
      out->append(buf);
      first = false;
    }
    if (e.arg_name != nullptr) {
      if (!first) out->push_back(',');
      out->push_back('"');
      AppendJsonEscaped(e.arg_name, out);
      out->append("\":");
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(e.arg_value));
      out->append(buf);
      first = false;
    }
    if (!e.detail.empty()) {
      if (!first) out->push_back(',');
      out->append("\"detail\":\"");
      AppendJsonEscaped(e.detail, out);
      out->append("\"");
    }
    out->append("}");
  }
  out->append("}");
}

void AppendThreadNameJson(int tid, const std::string& name,
                          std::string* out) {
  char buf[32];
  out->append(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
  std::snprintf(buf, sizeof(buf), "%d", tid);
  out->append(buf);
  out->append(",\"args\":{\"name\":\"");
  AppendJsonEscaped(name, out);
  out->append("\"}}");
}

/// The calling thread's log for the (single, global) recorder. A raw
/// pointer: the logs are owned by the recorder and never destroyed, so a
/// thread that outlives a Clear() keeps appending to the same log.
thread_local TraceRecorder* t_registered_with = nullptr;
thread_local void* t_log = nullptr;

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::ThreadLog& TraceRecorder::Log() {
  if (t_registered_with == this && t_log != nullptr) {
    return *static_cast<ThreadLog*>(t_log);
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::int64_t expected = 0;
  epoch_ns_.compare_exchange_strong(expected, SteadyNowNs(),
                                    std::memory_order_relaxed);
  auto log = std::make_unique<ThreadLog>();
  log->tid = static_cast<int>(logs_.size()) + 1;
  ThreadLog* raw = log.get();
  logs_.push_back(std::move(log));
  t_registered_with = this;
  t_log = raw;
  return *raw;
}

double TraceRecorder::NowUs() const {
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  if (epoch == 0) return 0.0;
  return static_cast<double>(SteadyNowNs() - epoch) * 1e-3;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    log->events.clear();
  }
  synthetic_lanes_.clear();
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

void TraceRecorder::Append(TraceEvent&& event) {
  ThreadLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  log.events.push_back(std::move(event));
}

void TraceRecorder::Begin(const char* name, const char* category,
                          const char* arg_name, std::int64_t arg_value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'B';
  e.name = name;
  e.category = category;
  e.ts_us = NowUs();
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  Append(std::move(e));
}

void TraceRecorder::End(const char* name, const char* category) {
  // Unconditional: spans begun while enabled always close (see TraceScope).
  TraceEvent e;
  e.phase = 'E';
  e.name = name;
  e.category = category;
  e.ts_us = NowUs();
  Append(std::move(e));
}

void TraceRecorder::Instant(const char* name, const char* category,
                            std::string detail) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = category;
  e.ts_us = NowUs();
  e.detail = std::move(detail);
  Append(std::move(e));
}

void TraceRecorder::Counter(const char* name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'C';
  e.name = name;
  e.category = "counter";
  e.ts_us = NowUs();
  e.value = value;
  Append(std::move(e));
}

void TraceRecorder::Complete(std::string name, const char* category,
                             int synthetic_tid, double ts_us, double dur_us,
                             const char* arg_name, std::int64_t arg_value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'X';
  e.dyn_name = std::move(name);
  e.category = category;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.tid_override = synthetic_tid;
  Append(std::move(e));
}

void TraceRecorder::SetThreadName(const char* name) {
  ThreadLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  log.thread_name = name;
}

void TraceRecorder::NameSyntheticLane(int tid, std::string name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  synthetic_lanes_.emplace_back(tid, std::move(name));
}

std::vector<std::pair<int, std::string>> TraceRecorder::synthetic_lanes()
    const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return synthetic_lanes_;
}

std::int64_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::int64_t total = 0;
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    total += static_cast<std::int64_t>(log->events.size());
  }
  return total;
}

std::vector<TaggedTraceEvent> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<TaggedTraceEvent> out;
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const TraceEvent& e : log->events) {
      TaggedTraceEvent tagged;
      tagged.tid = e.tid_override >= 0 ? e.tid_override : log->tid;
      tagged.event = e;
      out.push_back(std::move(tagged));
    }
  }
  return out;
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n");
  };
  comma();
  out.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"memo\"}}");
  for (const auto& log : logs_) {
    if (!log->thread_name.empty()) {
      comma();
      AppendThreadNameJson(log->tid, log->thread_name, &out);
    }
  }
  for (const auto& lane : synthetic_lanes_) {
    comma();
    AppendThreadNameJson(lane.first, lane.second, &out);
  }
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const TraceEvent& e : log->events) {
      comma();
      AppendEventJson(log->tid, e, &out);
    }
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

bool TraceRecorder::WriteJson(const std::string& path,
                              std::string* error) const {
  const std::string json = ToJson();
  const Status written =
      WriteWholeFile(path, json, "trace", WriteMode::kInPlace);
  if (!written.ok() && error != nullptr) *error = written.message();
  return written.ok();
}

}  // namespace memo::obs
