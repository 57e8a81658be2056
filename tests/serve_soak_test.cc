// Chaos soak for the serve stack: a SocketServer with small limits takes
// concurrent traffic from well-behaved clients, malformed clients, slow
// (half-line) clients, clients that disconnect without reading, and health
// pollers — with probabilistic faults armed on the connection recv/send
// sites — across two server generations separated by a kill + cache
// snapshot + warm restart. Every successful response must be byte-identical
// to a local cold solve of the same request, and the process must end with
// no leaked threads. Bounded: ~2s of traffic total, well under the 30s
// soak budget even under tsan/asan.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/plan_request.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/socket_server.h"

namespace {

using memo::FaultInjector;
using memo::FaultRule;
using memo::serve::PlanServer;
using memo::serve::PlanServerOptions;
using memo::serve::QueryOverSocket;
using memo::serve::SocketServer;
using memo::serve::SocketServerOptions;

/// Connects a raw AF_UNIX stream socket; -1 on failure. The abusive
/// clients need byte-level control QueryOverSocket does not expose.
int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int LiveThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

struct SoakRequest {
  std::string line;
  std::string expected_plan;  // SerializePlanResult of a local cold solve
};

TEST(ServeSoakTest, ChaosTrafficAndWarmRestartsStayByteIdentical) {
  const std::string socket_path = ::testing::TempDir() + "memo_soak.sock";
  const std::string snapshot_path = ::testing::TempDir() + "memo_soak.snap";
  std::remove(socket_path.c_str());
  std::remove(snapshot_path.c_str());

  // Local cold-solve references: the byte-identity oracle every served
  // response is compared against, across faults and restarts.
  std::vector<SoakRequest> requests;
  for (const char* seq : {"32K", "64K", "96K"}) {
    SoakRequest r;
    r.line = std::string("{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":"
                         "\"") +
             seq + "\",\"gpus\":8,\"tp\":4,\"cp\":2}";
    const auto parsed = memo::serve::ParsePlanRequestJson(r.line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    r.expected_plan = memo::serve::SerializePlanResult(
        memo::core::ExecutePlanRequest(*parsed));
    requests.push_back(std::move(r));
  }

  // Warm up the threading runtime before taking the baseline: sanitizers
  // (tsan in particular) lazily start a permanent background thread on
  // first pthread_create, which would otherwise read as a "leak".
  std::thread([] {}).join();
  const int baseline_threads = LiveThreadCount();
  ASSERT_GT(baseline_threads, 0);

  // gtest assertions are not thread-safe off the main thread, so worker
  // threads record outcomes in atomics and the main thread asserts after
  // the joins.
  std::atomic<std::int64_t> good_responses{0};
  std::atomic<std::int64_t> shed_or_dropped{0};
  std::atomic<std::int64_t> health_responses{0};
  std::atomic<bool> mismatch{false};
  std::atomic<bool> garbage_accepted{false};
  std::atomic<bool> health_malformed{false};

  for (int generation = 0; generation < 2; ++generation) {
    PlanServerOptions server_options;
    server_options.sessions = 2;
    server_options.max_queue = 4;
    PlanServer server(server_options);

    if (generation > 0) {
      // Warm restart: the previous generation's kill left a snapshot.
      const auto restored =
          memo::serve::LoadCacheSnapshot(snapshot_path, &server.cache());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_GE(*restored, 1);
    }

    SocketServerOptions options;
    options.socket_path = socket_path;
    options.idle_timeout_ms = 150;
    options.max_line_bytes = 2048;
    options.max_connections = 16;
    options.request_deadline_ms = 10000;
    SocketServer socket_server(&server, options);
    ASSERT_TRUE(socket_server.Start().ok());

    // Probabilistic connection faults, deterministic per seed. Low enough
    // that plenty of traffic still succeeds, high enough to fire often.
    FaultInjector::Global().Seed(0x50AC + generation);
    FaultRule flaky;
    flaky.probability = 0.03;
    FaultInjector::Global().Arm("serve.conn_recv", flaky);
    FaultInjector::Global().Arm("serve.conn_send", flaky);

    const auto stop_at = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(800);
    std::vector<std::thread> clients;

    // Well-behaved clients: random requests, every successful plan checked
    // against the local reference. Shed/faulted attempts are tolerated and
    // counted; wrong bytes are not.
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(17 * (c + 1) + generation);
        while (std::chrono::steady_clock::now() < stop_at) {
          const SoakRequest& req = requests[rng() % requests.size()];
          const auto response = QueryOverSocket(socket_path, req.line, 3);
          if (!response.ok()) {
            ++shed_or_dropped;  // injected fault, eviction, or shed
            continue;
          }
          memo::serve::JsonObject answer;
          if (!memo::serve::ReadJsonObject(*response, &answer).ok() ||
              answer.Get("code") != "0") {
            ++shed_or_dropped;
            continue;
          }
          if (answer.Get("plan") != req.expected_plan) mismatch = true;
          ++good_responses;
        }
      });
    }

    // Malformed client: garbage lines must get error responses (or a
    // dropped connection under an armed fault), never kill the server.
    clients.emplace_back([&] {
      const char* garbage[] = {"not json", "{\"kind\":\"bogus\"}",
                               "{\"seq\":0}", "{{{{"};
      int i = 0;
      while (std::chrono::steady_clock::now() < stop_at) {
        const auto response =
            QueryOverSocket(socket_path, garbage[i++ % 4], 3);
        if (response.ok()) {
          memo::serve::JsonObject answer;
          if (!memo::serve::ReadJsonObject(*response, &answer).ok() ||
              answer.Get("code").empty() || answer.Get("code") == "0") {
            garbage_accepted = true;
          }
        }
      }
    });

    // Slow-loris client: sends half a line and stalls past the idle
    // timeout; the server must shed it instead of holding the connection.
    clients.emplace_back([&] {
      while (std::chrono::steady_clock::now() < stop_at) {
        const int fd = RawConnect(socket_path);
        if (fd < 0) continue;
        const char half[] = "{\"kind\":\"strat";
        (void)::send(fd, half, sizeof(half) - 1, MSG_NOSIGNAL);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        char buf[256];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
        ::close(fd);
      }
    });

    // Disconnecting client: full request, then hangs up without reading
    // the response (the write side must tolerate EPIPE).
    clients.emplace_back([&] {
      while (std::chrono::steady_clock::now() < stop_at) {
        const int fd = RawConnect(socket_path);
        if (fd < 0) continue;
        const std::string line = requests[0].line + "\n";
        (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    // Health poller: must always be answered without touching the solver.
    clients.emplace_back([&] {
      while (std::chrono::steady_clock::now() < stop_at) {
        const auto response = QueryOverSocket(socket_path, "health", 3);
        if (response.ok()) {
          if (response->find("\"health\"") == std::string::npos) {
            health_malformed = true;
          }
          ++health_responses;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    for (std::thread& t : clients) t.join();
    FaultInjector::Global().Reset();

    if (generation == 0) {
      // Kill: abrupt stop with no drain, as a crash or SIGKILL would land.
      socket_server.Stop();
    } else {
      socket_server.BeginDrain();
      socket_server.Wait();
      socket_server.Stop();
    }
    const auto saved =
        memo::serve::SaveCacheSnapshot(snapshot_path, server.cache());
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_GE(*saved, 1);
    server.Shutdown();
  }

  EXPECT_FALSE(mismatch)
      << "a served plan differed from the local cold solve";
  EXPECT_FALSE(garbage_accepted) << "a malformed line got code 0";
  EXPECT_FALSE(health_malformed);
  EXPECT_GT(good_responses.load(), 0);
  EXPECT_GT(health_responses.load(), 0);
  (void)shed_or_dropped;  // informational only: faults make it nonzero

  // Every server and client thread must be gone. Thread exit is
  // asynchronous after join returns the last user thread, so allow a
  // short settle window before declaring a leak.
  const auto settle_until = std::chrono::steady_clock::now() +
                            std::chrono::seconds(5);
  int threads = LiveThreadCount();
  while (threads > baseline_threads &&
         std::chrono::steady_clock::now() < settle_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    threads = LiveThreadCount();
  }
  EXPECT_LE(threads, baseline_threads)
      << "thread leak: " << threads << " live vs baseline "
      << baseline_threads;

  std::remove(socket_path.c_str());
  std::remove(snapshot_path.c_str());
}

}  // namespace
