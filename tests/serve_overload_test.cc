// Overload and deadline behavior of PlanServer: shed responses return
// promptly while the pipeline is saturated (they never wait behind the
// queue), requests whose deadline expires while queued are answered
// DEADLINE_EXCEEDED without the solver ever observing them, cache hits are
// served even with an expired deadline, deadline-exceeded solves are never
// cached, and the serve.shed.* / serve.deadline_exceeded metric breakdown
// matches the observed counts.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/status.h"
#include "core/plan_request.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace {

using memo::Deadline;
using memo::core::ExecutePlanRequest;
using memo::core::PlanQueryKind;
using memo::core::PlanRequest;
using memo::core::PlanResult;
using memo::serve::PlanServer;
using memo::serve::PlanServerOptions;
using memo::serve::QueryOutcome;

PlanRequest SmallRequest(std::int64_t seq = 64 * memo::kSeqK) {
  PlanRequest request;
  request.kind = PlanQueryKind::kStrategy;
  request.model = memo::model::Gpt7B();
  request.seq = seq;
  request.cluster = memo::hw::PaperCluster(8);
  request.strategy.tp = 4;
  request.strategy.cp = 2;
  return request;
}

std::int64_t CounterValue(const char* name) {
  return memo::obs::MetricsRegistry::Global().counter(name)->value();
}

/// Gated solver shared by the tests below: blocks inside the solve until
/// released, and counts how many requests ever reached it — the property
/// the deadline tests assert on.
struct GatedSolver {
  std::mutex mu;
  std::condition_variable cv;
  std::condition_variable entered_cv;
  bool release = false;
  int entered = 0;

  PlanServerOptions Options(int sessions, int max_queue) {
    PlanServerOptions options;
    options.sessions = sessions;
    options.max_queue = max_queue;
    options.solver = [this](const PlanRequest& request) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++entered;
      }
      entered_cv.notify_all();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return release; });
      return ExecutePlanRequest(request);
    };
    return options;
  }

  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    entered_cv.wait(lock, [&] { return entered >= n; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }

  int Entered() {
    std::lock_guard<std::mutex> lock(mu);
    return entered;
  }
};

TEST(ServeOverloadTest, ShedResponsesReturnPromptlyWhileSaturated) {
  GatedSolver gate;
  PlanServer server(gate.Options(/*sessions=*/1, /*max_queue=*/1));

  std::thread busy([&] { server.Query(SmallRequest(64 * memo::kSeqK)); });
  gate.WaitEntered(1);
  std::thread queued([&] { server.Query(SmallRequest(96 * memo::kSeqK)); });
  while (server.stats().accepted < 2) std::this_thread::yield();

  // The shed answer must arrive while the pipeline is still blocked — it
  // is produced at admission, not after the queue drains. Bound the wall
  // time generously (the solver stays gated for the whole window, so a
  // shed that waited on the queue would block forever, not just slowly).
  const std::int64_t queue_full_before =
      CounterValue("serve.shed.queue_full");
  const auto start = std::chrono::steady_clock::now();
  const QueryOutcome shed = server.Query(SmallRequest(128 * memo::kSeqK));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(CounterValue("serve.shed.queue_full"), queue_full_before + 1);
  EXPECT_EQ(gate.Entered(), 1) << "shed request must not reach the solver";

  gate.Release();
  busy.join();
  queued.join();
}

TEST(ServeOverloadTest, ExpiredQueuedRequestsNeverReachTheSolver) {
  GatedSolver gate;
  PlanServer server(gate.Options(/*sessions=*/1, /*max_queue=*/4));

  std::thread busy([&] { server.Query(SmallRequest(64 * memo::kSeqK)); });
  gate.WaitEntered(1);

  // Queue a request whose budget expires while the only session is busy.
  const std::int64_t deadline_before =
      CounterValue("serve.deadline_exceeded");
  QueryOutcome expired;
  std::thread queued([&] {
    expired = server.Query(SmallRequest(96 * memo::kSeqK),
                           Deadline::AfterMillis(30));
  });
  while (server.stats().accepted < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  gate.Release();
  busy.join();
  queued.join();

  EXPECT_TRUE(expired.status.IsDeadlineExceeded())
      << expired.status.ToString();
  EXPECT_EQ(expired.plan, nullptr);
  // The busy request is the only one the solver ever saw: the expired job
  // was answered straight out of the queue.
  EXPECT_EQ(gate.Entered(), 1);
  EXPECT_GE(server.stats().deadline_exceeded, 1);
  EXPECT_EQ(CounterValue("serve.deadline_exceeded"), deadline_before + 1);

  // The expired answer was never cached: the same request now solves.
  const QueryOutcome retry = server.Query(SmallRequest(96 * memo::kSeqK));
  EXPECT_TRUE(retry.status.ok()) << retry.status.ToString();
  EXPECT_FALSE(retry.cache_hit);
}

TEST(ServeOverloadTest, CacheHitsAreServedEvenWithAnExpiredDeadline) {
  PlanServer server;
  const PlanRequest request = SmallRequest();
  const QueryOutcome cold = server.Query(request);
  ASSERT_TRUE(cold.status.ok());

  // A warm answer costs nothing, so an exhausted budget does not block it
  // (the lookup runs before admission).
  const QueryOutcome warm = server.Query(request, Deadline::AfterMillis(0));
  EXPECT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_EQ(warm.plan->payload, cold.plan->payload);
}

TEST(ServeOverloadTest, DeadlineExceededSolvesAreNotCached) {
  // A solver whose first run is cut short by the deadline (emulated by
  // returning the status core::ExecutePlanRequest produces when a phase
  // boundary trips) and whose later runs complete normally.
  std::mutex mu;
  int calls = 0;
  PlanServerOptions options;
  options.solver = [&](const PlanRequest& request) {
    std::lock_guard<std::mutex> lock(mu);
    if (++calls == 1) {
      PlanResult result;
      result.kind = request.kind;
      result.status =
          memo::DeadlineExceededError("deadline expired at phase test");
      return result;
    }
    return ExecutePlanRequest(request);
  };
  PlanServer server(options);

  const PlanRequest request = SmallRequest();
  const QueryOutcome first = server.Query(request);
  EXPECT_TRUE(first.status.IsDeadlineExceeded()) << first.status.ToString();
  EXPECT_EQ(first.plan, nullptr);

  // A timing failure is a property of that attempt, not of the request:
  // the retry must re-solve (cache miss) and succeed.
  const QueryOutcome second = server.Query(request);
  EXPECT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(second.cache_hit);
  ASSERT_NE(second.plan, nullptr);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(calls, 2);
  }

  // And the good answer IS cached.
  const QueryOutcome third = server.Query(request);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.plan->payload, second.plan->payload);
}

TEST(ServeOverloadTest, DrainingServerShedsWithItsOwnMetric) {
  GatedSolver gate;
  gate.release = true;  // solver runs through immediately
  PlanServer server(gate.Options(/*sessions=*/1, /*max_queue=*/4));

  const std::int64_t draining_before = CounterValue("serve.shed.draining");
  server.BeginDrain();
  EXPECT_TRUE(server.draining());

  const QueryOutcome shed = server.Query(SmallRequest());
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_NE(shed.status.message().find("draining"), std::string::npos);
  EXPECT_EQ(CounterValue("serve.shed.draining"), draining_before + 1);
  EXPECT_EQ(gate.Entered(), 0);
}

TEST(ServeOverloadTest, ShedBreakdownMatchesAggregateStats) {
  GatedSolver gate;
  PlanServer server(gate.Options(/*sessions=*/1, /*max_queue=*/1));

  const std::int64_t queue_full_before =
      CounterValue("serve.shed.queue_full");
  const std::int64_t draining_before = CounterValue("serve.shed.draining");

  std::thread busy([&] { server.Query(SmallRequest(64 * memo::kSeqK)); });
  gate.WaitEntered(1);
  std::thread queued([&] { server.Query(SmallRequest(96 * memo::kSeqK)); });
  while (server.stats().accepted < 2) std::this_thread::yield();

  server.Query(SmallRequest(128 * memo::kSeqK));  // shed: queue full
  server.BeginDrain();
  server.Query(SmallRequest(160 * memo::kSeqK));  // shed: draining

  gate.Release();
  busy.join();
  queued.join();

  EXPECT_EQ(CounterValue("serve.shed.queue_full"), queue_full_before + 1);
  EXPECT_EQ(CounterValue("serve.shed.draining"), draining_before + 1);
  // The aggregate equals the sum of the per-cause shed counts for this
  // server instance.
  EXPECT_EQ(server.stats().shed, 2);
  EXPECT_EQ(server.stats().completed, 2);
}

}  // namespace
