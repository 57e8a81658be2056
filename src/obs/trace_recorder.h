#ifndef MEMO_OBS_TRACE_RECORDER_H_
#define MEMO_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace memo::obs {

/// One recorded trace event, in the vocabulary of the Chrome tracing JSON
/// format (chrome://tracing, Perfetto):
///   'B'/'E'  begin/end of a duration span (paired per thread, well-nested
///            by construction because spans are emitted via RAII scopes),
///   'i'      instant event (a point in time, e.g. an injected I/O fault),
///   'C'      counter sample,
///   'X'      complete event with an explicit start + duration (used to
///            mirror SimEngine timelines, which carry their own clock).
///
/// `name` points at a string literal for the common static call sites; the
/// dynamic-name path (sim mirroring) stores the label in `dyn_name` and
/// leaves `name` null.
struct TraceEvent {
  char phase = 'B';
  const char* name = nullptr;
  std::string dyn_name;
  const char* category = "";
  double ts_us = 0.0;
  double dur_us = 0.0;      // 'X' only
  double value = 0.0;       // 'C' only
  const char* arg_name = nullptr;  // optional int64 argument ('B'/'X')
  std::int64_t arg_value = 0;
  std::string detail;       // optional free-text argument ('i')
  int tid_override = -1;    // synthetic lane (sim streams); -1 = real thread

  const char* effective_name() const {
    return name != nullptr ? name : dyn_name.c_str();
  }
};

/// A TraceEvent paired with the thread lane it was recorded on (snapshot
/// form handed to tests and the serializer).
struct TaggedTraceEvent {
  int tid = 0;
  TraceEvent event;
};

/// Process-wide, thread-safe trace recorder. Disabled by default: every
/// emission site first reads one relaxed atomic and returns, so a traced-off
/// run does no locking, no allocation and no timestamping — the numeric
/// results are bit-identical with tracing on or off because tracing never
/// touches the data path at all.
///
/// When enabled, each thread appends to its own event log guarded by a
/// per-thread mutex that only the serializer ever contends ("lock-cheap"):
/// the hot path is one uncontended lock + vector push_back. Thread ids are
/// assigned in registration order starting at 1; logs outlive their threads
/// so serialization after a pool shuts down still sees every event.
///
/// Compile-out: building with -DMEMO_OBS_DISABLE_TRACING makes the
/// MEMO_TRACE_* macros expand to nothing, removing even the atomic load
/// from instrumented call sites.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded events and restarts the trace clock. Thread logs
  /// stay registered (their tids are stable for the process lifetime).
  void Clear();

  /// Microseconds since the trace epoch (construction or last Clear()).
  double NowUs() const;

  // Emission. All are no-ops while disabled, except End(): a span begun
  // while enabled always completes so B/E pairs stay balanced even if the
  // recorder is disabled mid-span (TraceScope tracks that for callers).
  void Begin(const char* name, const char* category,
             const char* arg_name = nullptr, std::int64_t arg_value = 0);
  void End(const char* name, const char* category);
  void Instant(const char* name, const char* category,
               std::string detail = "");
  void Counter(const char* name, double value);
  /// Explicit-timestamp complete event on a synthetic lane (>= 1000 by
  /// convention), used to mirror simulator streams into the trace.
  void Complete(std::string name, const char* category, int synthetic_tid,
                double ts_us, double dur_us, const char* arg_name = nullptr,
                std::int64_t arg_value = 0);

  /// Names the calling thread's lane (shows as the Perfetto track name).
  /// Registers the thread log even while disabled (cheap, once per thread).
  void SetThreadName(const char* name);
  /// Names a synthetic lane used with Complete().
  void NameSyntheticLane(int tid, std::string name);

  /// Copies out the named synthetic lanes, in naming order (trace
  /// converters use this to turn mirrored sim events back into streams).
  std::vector<std::pair<int, std::string>> synthetic_lanes() const;

  /// Number of events currently recorded across all threads.
  std::int64_t event_count() const;

  /// Copies out every event with its thread id (test/inspection hook).
  std::vector<TaggedTraceEvent> Snapshot() const;

  /// Serializes to the Chrome tracing JSON object format:
  ///   {"traceEvents":[...],"displayTimeUnit":"ms"}
  std::string ToJson() const;

  /// Writes ToJson() to `path` in place (memo::WriteWholeFile); returns
  /// false and fills `*error` on failure.
  bool WriteJson(const std::string& path, std::string* error = nullptr) const;

 private:
  struct ThreadLog {
    int tid = 0;
    std::string thread_name;
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  TraceRecorder() = default;

  /// The calling thread's log, registering it on first use.
  ThreadLog& Log();
  void Append(TraceEvent&& event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::pair<int, std::string>> synthetic_lanes_;
  /// steady_clock epoch of the trace (atomic: NowUs runs on every event
  /// emission and must not touch the registry lock).
  std::atomic<std::int64_t> epoch_ns_{0};
};

/// RAII duration span. Records Begin at construction when the recorder is
/// enabled and always matches it with End so per-thread B/E nesting stays
/// balanced. Does nothing (and allocates nothing) while disabled.
class TraceScope {
 public:
  TraceScope(const char* name, const char* category) {
    TraceRecorder& r = TraceRecorder::Global();
    if (r.enabled()) {
      name_ = name;
      category_ = category;
      r.Begin(name, category);
    }
  }
  TraceScope(const char* name, const char* category, const char* arg_name,
             std::int64_t arg_value) {
    TraceRecorder& r = TraceRecorder::Global();
    if (r.enabled()) {
      name_ = name;
      category_ = category;
      r.Begin(name, category, arg_name, arg_value);
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) TraceRecorder::Global().End(name_, category_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
};

}  // namespace memo::obs

// Instrumentation macros — the only tracing surface used by library code.
// MEMO_OBS_DISABLE_TRACING compiles every site down to nothing, making the
// traced-off build bit-identical to a build without the obs layer at all.
#ifndef MEMO_OBS_DISABLE_TRACING

#define MEMO_TRACE_CONCAT_INNER(a, b) a##b
#define MEMO_TRACE_CONCAT(a, b) MEMO_TRACE_CONCAT_INNER(a, b)

/// Span covering the rest of the enclosing block.
#define MEMO_TRACE_SCOPE(name, category)                     \
  ::memo::obs::TraceScope MEMO_TRACE_CONCAT(memo_trace_scope_, \
                                            __LINE__)(name, category)
/// Span with one int64 argument (e.g. the layer index).
#define MEMO_TRACE_SCOPE_ARG(name, category, arg_name, arg_value)   \
  ::memo::obs::TraceScope MEMO_TRACE_CONCAT(memo_trace_scope_,       \
                                            __LINE__)(               \
      name, category, arg_name,                                      \
      static_cast<std::int64_t>(arg_value))
#define MEMO_TRACE_INSTANT(name, category, detail)                       \
  do {                                                                   \
    auto& memo_trace_r = ::memo::obs::TraceRecorder::Global();           \
    if (memo_trace_r.enabled()) memo_trace_r.Instant(name, category,     \
                                                     detail);            \
  } while (0)
#define MEMO_TRACE_COUNTER(name, value)                                  \
  do {                                                                   \
    auto& memo_trace_r = ::memo::obs::TraceRecorder::Global();           \
    if (memo_trace_r.enabled())                                          \
      memo_trace_r.Counter(name, static_cast<double>(value));            \
  } while (0)
#define MEMO_TRACE_SET_THREAD_NAME(name) \
  ::memo::obs::TraceRecorder::Global().SetThreadName(name)

#else  // MEMO_OBS_DISABLE_TRACING

#define MEMO_TRACE_SCOPE(name, category) \
  do {                                   \
  } while (0)
#define MEMO_TRACE_SCOPE_ARG(name, category, arg_name, arg_value) \
  do {                                                            \
  } while (0)
#define MEMO_TRACE_INSTANT(name, category, detail) \
  do {                                             \
  } while (0)
#define MEMO_TRACE_COUNTER(name, value) \
  do {                                  \
  } while (0)
#define MEMO_TRACE_SET_THREAD_NAME(name) \
  do {                                   \
  } while (0)

#endif  // MEMO_OBS_DISABLE_TRACING

#endif  // MEMO_OBS_TRACE_RECORDER_H_
