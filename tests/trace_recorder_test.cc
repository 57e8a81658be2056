// Tests for the obs tracing layer. This file builds twice: once normally
// (trace_recorder_test) and once with -DMEMO_OBS_DISABLE_TRACING
// (trace_recorder_compileout_test), which turns every MEMO_TRACE_* macro
// into nothing — the compile-out sections assert that instrumented call
// sites then emit no events and allocate no memory even with the recorder
// enabled.

#include "obs/trace_recorder.h"

#include <malloc.h>  // malloc_usable_size

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_json.h"

namespace {

// Global allocation counter: every operator new in this binary bumps it, so
// tests can assert a code region performs zero heap allocations.
std::atomic<std::int64_t> g_allocations{0};
// Bytes of the operator new blocks still live, so tests can assert that a
// call hands storage back.
std::atomic<std::int64_t> g_live_bytes{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// The replacement operators pair malloc with free consistently; GCC's
// heuristic cannot see through the replacement and mis-flags call sites.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace memo::obs {
namespace {

using testjson::Value;

/// Parses recorder JSON and returns the trace event array (asserting the
/// envelope shape on the way).
[[maybe_unused]] std::vector<Value> ParsedEvents(
    const TraceRecorder& recorder) {
  const std::string json = recorder.ToJson();
  const testjson::ParseResult parsed = testjson::Parse(json);
  EXPECT_TRUE(parsed.ok) << "invalid JSON at offset " << parsed.error_offset
                         << ": " << json.substr(parsed.error_offset, 80);
  if (!parsed.ok) return {};
  EXPECT_TRUE(parsed.value.is_object());
  EXPECT_TRUE(parsed.value.at("traceEvents").is_array());
  return parsed.value.at("traceEvents").array;
}

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

#ifndef MEMO_OBS_DISABLE_TRACING

TEST_F(TraceRecorderTest, ConcurrentEmissionSerializesToValidJson) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      MEMO_TRACE_SET_THREAD_NAME("emitter");
      for (int i = 0; i < kIterations; ++i) {
        MEMO_TRACE_SCOPE("outer", "test");
        MEMO_TRACE_COUNTER("progress", i);
        {
          MEMO_TRACE_SCOPE_ARG("middle", "test", "iter", i);
          { MEMO_TRACE_SCOPE("inner", "test"); }
          MEMO_TRACE_INSTANT("tick", "test", "thread " + std::to_string(t));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<Value> events = ParsedEvents(TraceRecorder::Global());
  ASSERT_FALSE(events.empty());

  // Per tid: spans are balanced and well nested, timestamps never go
  // backwards, and each thread emitted the full complement of events.
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  std::map<int, int> begins, ends, instants, counters;
  for (const Value& e : events) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") continue;  // metadata carries no timestamp
    const int tid = static_cast<int>(e.at("tid").number);
    const double ts = e.at("ts").number;
    ASSERT_TRUE(e.at("ts").is_number());
    EXPECT_GE(ts, 0.0);
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regressed on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(e.at("name").string);
      ++begins[tid];
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "E without B on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), e.at("name").string)
          << "spans not well nested on tid " << tid;
      stacks[tid].pop_back();
      ++ends[tid];
    } else if (ph == "i") {
      ++instants[tid];
    } else if (ph == "C") {
      ++counters[tid];
    }
  }
  int emitting_tids = 0;
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
    EXPECT_EQ(begins[tid], ends[tid]);
    if (begins[tid] == 0) continue;
    ++emitting_tids;
    EXPECT_EQ(begins[tid], 3 * kIterations);
    EXPECT_EQ(instants[tid], kIterations);
    EXPECT_EQ(counters[tid], kIterations);
  }
  EXPECT_EQ(emitting_tids, kThreads);
}

TEST_F(TraceRecorderTest, ThreadNamesAppearAsMetadata) {
  std::thread([] {
    MEMO_TRACE_SET_THREAD_NAME("worker-zebra");
    MEMO_TRACE_SCOPE("work", "test");
  }).join();

  bool found = false;
  for (const Value& e : ParsedEvents(TraceRecorder::Global())) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name" &&
        e.at("args").at("name").string == "worker-zebra") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceRecorderTest, CompleteEventsLandOnNamedSyntheticLanes) {
  TraceRecorder& r = TraceRecorder::Global();
  r.NameSyntheticLane(1000, "sim:compute");
  r.Complete("layer_fwd", "sim", 1000, 10.0, 5.0, "stall_us", 2);
  r.Complete("layer_bwd", "sim", 1000, 15.0, 7.5);

  bool lane_named = false;
  int x_events = 0;
  for (const Value& e : ParsedEvents(r)) {
    if (e.at("ph").string == "M" &&
        e.at("args").at("name").string == "sim:compute" &&
        static_cast<int>(e.at("tid").number) == 1000) {
      lane_named = true;
    }
    if (e.at("ph").string == "X") {
      ++x_events;
      EXPECT_EQ(static_cast<int>(e.at("tid").number), 1000);
      EXPECT_TRUE(e.at("dur").is_number());
    }
  }
  EXPECT_TRUE(lane_named);
  EXPECT_EQ(x_events, 2);
}

TEST_F(TraceRecorderTest, SpanBegunWhileEnabledClosesAfterDisable) {
  TraceRecorder& r = TraceRecorder::Global();
  {
    MEMO_TRACE_SCOPE("straddler", "test");
    r.Disable();
  }  // End fires here even though the recorder is now disabled
  r.Enable();
  int b = 0, e = 0;
  for (const auto& tagged : r.Snapshot()) {
    if (tagged.event.phase == 'B') ++b;
    if (tagged.event.phase == 'E') ++e;
  }
  EXPECT_EQ(b, 1);
  EXPECT_EQ(e, 1);
}

TEST_F(TraceRecorderTest, ClearDropsEventsAndRestartsClock) {
  { MEMO_TRACE_SCOPE("before", "test"); }
  EXPECT_GT(TraceRecorder::Global().event_count(), 0);
  TraceRecorder::Global().Clear();
  EXPECT_EQ(TraceRecorder::Global().event_count(), 0);
  { MEMO_TRACE_SCOPE("after", "test"); }
  for (const auto& tagged : TraceRecorder::Global().Snapshot()) {
    EXPECT_LT(tagged.event.ts_us, 60.0 * 1e6)
        << "timestamp not relative to the post-Clear epoch";
  }
}

TEST_F(TraceRecorderTest, EscapesSpecialCharactersInJson) {
  MEMO_TRACE_INSTANT("quote", "test", "a \"quoted\"\\ detail\nline");
  const std::string json = TraceRecorder::Global().ToJson();
  EXPECT_TRUE(testjson::Parse(json).ok);
}

#endif  // !MEMO_OBS_DISABLE_TRACING

// Both builds (the recorder's own methods, not the macros): the log of a
// thread outlives the thread, so Clear() must free the events' storage, not
// only forget the events, or every exited thread keeps the largest trace it
// ever recorded.
TEST_F(TraceRecorderTest, ClearFreesTheLogsOfExitedThreads) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 4096;
  TraceRecorder& r = TraceRecorder::Global();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kSpans; ++i) {
        r.Begin("short_lived", "test");
        r.End("short_lived", "test");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t events = r.event_count();
  ASSERT_EQ(events, 2 * kThreads * kSpans);

  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  r.Clear();
  const std::int64_t freed =
      before - g_live_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(r.event_count(), 0);
  EXPECT_GE(freed, events * static_cast<std::int64_t>(sizeof(TraceEvent)));
}

// Both builds: a disabled recorder must make instrumented call sites free —
// no events recorded and no heap allocations performed. In the compile-out
// build the same holds even with the recorder ENABLED, because the macros
// no longer exist at the call sites.
TEST(TraceRecorderDisabled, EmitsNothingAndAllocatesNothing) {
  TraceRecorder& r = TraceRecorder::Global();
  r.Clear();
#ifdef MEMO_OBS_DISABLE_TRACING
  r.Enable();  // macros are compiled out: even enabled, sites emit nothing
#else
  r.Disable();
#endif
  // Register this thread's log outside the measured region (registration
  // may allocate once per thread; emission afterwards must not).
  r.SetThreadName("main");

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    MEMO_TRACE_SCOPE("hot", "test");
    MEMO_TRACE_SCOPE_ARG("hot_arg", "test", "i", i);
    MEMO_TRACE_COUNTER("value", i);
    MEMO_TRACE_INSTANT("point", "test", "");
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0) << "disabled emission allocated";
  EXPECT_EQ(r.event_count(), 0);
  r.Disable();
}

TEST(TraceRecorderDisabled, JsonEnvelopeStillValidWhenEmpty) {
  TraceRecorder& r = TraceRecorder::Global();
  r.Disable();
  r.Clear();
  const testjson::ParseResult parsed = testjson::Parse(r.ToJson());
  ASSERT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.value.at("traceEvents").is_array());
}

}  // namespace
}  // namespace memo::obs
