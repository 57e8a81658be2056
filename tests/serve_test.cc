// Serve-subsystem integration: PlanRequest fingerprint identity,
// ExecutePlanRequest staying bit-identical to a direct executor call,
// PlanServer admission control (bounded queue -> UNAVAILABLE shedding)
// with a gated injected solver, warm-vs-cold bit-identity through the
// cache, and the newline-JSON wire protocol over a real Unix-domain
// socket.

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/fingerprint.h"
#include "core/memo_executor.h"
#include "core/plan_request.h"
#include "plan_request_testing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/socket_server.h"

namespace {

using memo::core::ExecutePlanRequest;
using memo::core::PlanQueryKind;
using memo::core::PlanRequest;
using memo::core::PlanResult;
using memo::serve::PlanServer;
using memo::serve::PlanServerOptions;
using memo::serve::QueryOutcome;

/// The `key` field of answer line `line`, read by the protocol's reader;
/// "" when the line does not read or has no such field.
std::string AnswerField(const std::string& line, const std::string& key) {
  memo::serve::JsonObject answer;
  return memo::serve::ReadJsonObject(line, &answer).ok() ? answer.Get(key)
                                                         : "";
}

/// A small, fast-solving request (one explicit strategy on the 7B model).
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

TEST(PlanRequestTest, FingerprintIsDeterministicAndFieldSensitive) {
  const PlanRequest a = SmallRequest();
  const PlanRequest b = SmallRequest();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());

  // Every identity-bearing field must move the fingerprint.
  PlanRequest changed = SmallRequest();
  changed.seq += memo::kSeqK;
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  changed = SmallRequest();
  changed.strategy.tp = 8;
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  changed = SmallRequest();
  changed.calibration.gemm_efficiency += 1e-9;  // exact bit pattern matters
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  changed = SmallRequest();
  changed.cluster.node.nvme_bytes = 1;
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  changed = SmallRequest();
  changed.alpha_steps += 1;
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  changed = SmallRequest();
  changed.kind = PlanQueryKind::kBestStrategy;
  EXPECT_NE(changed.Fingerprint(), a.Fingerprint());

  // The system is hashed by name: a DeepSpeed query must never be answered
  // with a cached MEMO plan.
  const std::string system_field =
      std::string("system=") +
      memo::parallel::SystemKindToString(memo::parallel::SystemKind::kMemo) +
      ";";
  EXPECT_NE(a.CanonicalString().find(system_field), std::string::npos)
      << a.CanonicalString();
  for (const auto system : {memo::parallel::SystemKind::kMegatron,
                            memo::parallel::SystemKind::kDeepSpeed}) {
    changed = SmallRequest();
    changed.system = system;
    EXPECT_NE(changed.Fingerprint(), a.Fingerprint())
        << memo::parallel::SystemKindToString(system);
  }
}

TEST(PlanRequestTest, FingerprintsArePinned) {
  // The fingerprint is the plan-cache key, the "fingerprint" of every
  // protocol answer and the key of every saved cache snapshot, so it must
  // not move between builds: each literal was computed when the request's
  // solver budgets became constants.
  PlanRequest maxseq;
  maxseq.kind = PlanQueryKind::kMaxSeq;
  maxseq.model = memo::model::Gpt7B();
  maxseq.seq = 128 * memo::kSeqK;
  maxseq.cluster = memo::hw::PaperCluster(8);
  maxseq.seq_step = 128 * memo::kSeqK;
  maxseq.seq_cap = 1024 * memo::kSeqK;
  EXPECT_EQ(PlanRequest{}.Fingerprint(), 0xa59ca496dbae7638ULL);
  EXPECT_EQ(SmallRequest().Fingerprint(), 0x0e1126219b024ab0ULL);
  EXPECT_EQ(maxseq.Fingerprint(), 0x8205b1c74931582cULL);
}

TEST(PlanRequestTest, StrategyOnlyMattersForStrategyQueries) {
  // For kBestStrategy the planner searches the space itself, so the
  // strategy scratch field must not leak into the identity.
  PlanRequest a = SmallRequest();
  a.kind = PlanQueryKind::kBestStrategy;
  PlanRequest b = a;
  b.strategy.tp = 1;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(PlanRequestTest, ExecuteMatchesDirectSessionCallBitExactly) {
  const PlanRequest request = SmallRequest();
  const PlanResult via_request = ExecutePlanRequest(request);
  ASSERT_TRUE(via_request.status.ok()) << via_request.status.ToString();

  const auto direct = memo::core::RunMemoIteration(request, request.strategy);
  ASSERT_TRUE(direct.ok());

  // The refactor contract: routing through PlanRequest is the identity
  // transformation. Compare through the deterministic serialization, which
  // covers every reported field with exact float formatting.
  PlanResult wrapped;
  wrapped.kind = PlanQueryKind::kStrategy;
  wrapped.best = *direct;
  wrapped.strategies_tried = wrapped.strategies_feasible = 1;
  EXPECT_EQ(memo::serve::SerializePlanResult(via_request),
            memo::serve::SerializePlanResult(wrapped));
}

TEST(PlanServerTest, WarmQueriesHitTheCacheWithBitIdenticalPayloads) {
  PlanServer server;
  const PlanRequest request = SmallRequest();

  const QueryOutcome cold = server.Query(request);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_NE(cold.plan, nullptr);
  EXPECT_FALSE(cold.cache_hit);

  const QueryOutcome warm = server.Query(request);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_TRUE(warm.cache_hit);

  // Bit-identical to the cold solve, and to an independent local solve.
  EXPECT_EQ(warm.plan->payload, cold.plan->payload);
  EXPECT_EQ(cold.plan->payload,
            memo::serve::SerializePlanResult(ExecutePlanRequest(request)));
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
}

TEST(PlanServerTest, SolverFailuresAreCachedAnswersNotServiceErrors) {
  PlanServer server;
  PlanRequest request = SmallRequest();
  request.strategy.tp = 7;  // does not divide heads/hidden -> invalid
  const QueryOutcome outcome = server.Query(request);
  ASSERT_TRUE(outcome.status.ok()) << "service path must be OK";
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_FALSE(outcome.plan->result.status.ok());

  // The failure is deterministic, so it is served from cache the second
  // time instead of re-validating.
  const QueryOutcome again = server.Query(request);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.plan->payload, outcome.plan->payload);
}

TEST(PlanServerTest, FullAdmissionQueueShedsWithUnavailable) {
  // One session, one queue slot, and a solver gated on a condition
  // variable: occupancy is fully deterministic.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::condition_variable entered_cv;
  int entered = 0;

  PlanServerOptions options;
  options.sessions = 1;
  options.max_queue = 1;
  options.solver = [&](const PlanRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++entered;
    }
    entered_cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return ExecutePlanRequest(request);
  };
  PlanServer server(options);

  // Distinct requests so nothing coalesces in the cache.
  std::thread busy([&] { server.Query(SmallRequest(64 * memo::kSeqK)); });
  {
    // Wait until the session is inside the solver (session busy, queue
    // empty).
    std::unique_lock<std::mutex> lock(mu);
    entered_cv.wait(lock, [&] { return entered == 1; });
  }

  std::thread queued([&] { server.Query(SmallRequest(96 * memo::kSeqK)); });
  // Wait until the queued request occupies the single queue slot.
  while (server.stats().accepted < 2) std::this_thread::yield();

  // Session busy + queue full: the third distinct request must be shed.
  const QueryOutcome shed = server.Query(SmallRequest(128 * memo::kSeqK));
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_EQ(shed.plan, nullptr);
  EXPECT_GE(server.stats().shed, 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  busy.join();
  queued.join();

  // With the pipeline drained, the previously shed request now solves.
  const QueryOutcome retry = server.Query(SmallRequest(128 * memo::kSeqK));
  EXPECT_TRUE(retry.status.ok());
  ASSERT_NE(retry.plan, nullptr);

  // Warm requests bypass admission entirely: even a saturated server
  // answers them (re-gate the pipeline and probe a cached fingerprint).
  const QueryOutcome warm = server.Query(SmallRequest(64 * memo::kSeqK));
  EXPECT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
}

TEST(ProtocolTest, RequestJsonRoundTripsThroughTheParser) {
  const auto request = memo::serve::ParsePlanRequestJson(
      "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\","
      "\"gpus\":8,\"tp\":4,\"cp\":2}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, PlanQueryKind::kStrategy);
  EXPECT_EQ(request->seq, 64 * memo::kSeqK);
  EXPECT_EQ(request->strategy.tp, 4);
  EXPECT_EQ(request->strategy.cp, 2);

  // The parsed request must fingerprint identically to the same request
  // built programmatically — the cache key cannot depend on the entry path.
  EXPECT_EQ(request->Fingerprint(), SmallRequest().Fingerprint());
}

TEST(ProtocolTest, TheReaderReportsTheKeysItDoesNotKnow) {
  // Every field the reader knows, spelled in one request: none is unknown.
  const memo::serve::PlanRequestFields all = {
      {"kind", "maxseq"}, {"system", "memo"},   {"model", "7B"},
      {"seq", "64K"},     {"gpus", "8"},        {"host_gib", "256"},
      {"nvme_gib", "0"},  {"nvme_gbps", "6"},   {"tp", "1"},
      {"cp", "1"},        {"pp", "1"},          {"vp", "1"},
      {"dp", "1"},        {"sp", "1"},          {"zero", "0"},
      {"full_recompute", "false"},              {"alpha", "-1"},
      {"alpha_steps", "8"},                     {"step", "128K"},
      {"cap", "256K"}};
  std::vector<std::string> unknown = {"stale"};
  ASSERT_TRUE(memo::serve::ParsePlanRequestFields(all, &unknown).ok());
  EXPECT_TRUE(unknown.empty()) << ::testing::PrintToString(unknown);

  // The wire protocol still ignores the rest; the reader names them.
  memo::serve::PlanRequestFields typos = {
      {"model", "7B"}, {"alhpa", "0.25"}, {"host-gib", "64"}};
  const auto request = memo::serve::ParsePlanRequestFields(typos, &unknown);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(unknown, (std::vector<std::string>{"alhpa", "host-gib"}));
  EXPECT_EQ(request->Fingerprint(),
            memo::serve::ParsePlanRequestJson("{\"model\":\"7B\"}")
                ->Fingerprint());
}

TEST(ProtocolTest, MalformedRequestsAreInvalidArgument) {
  // `field` is the name the error message must start with; lines that fail
  // before any field is read name none.
  const struct {
    const char* line;
    const char* field;
  } bad[] = {
      {"not json at all", nullptr},
      {"{\"kind\":\"bogus\"}", "kind"},
      {"{\"seq\":\"sixtyfour\"}", "seq"},
      {"{\"gpus\":-2}", "gpus"},
      {"{\"model\":\"9000B\"}", "model"},
      {"{\"tp\":{\"nested\":1}}", nullptr},
      {"{\"seq\":0}", "seq"},
      // Each of these aborted the process, or was solved and cached.
      {"{\"alpha\":\"nan\"}", "alpha"},
      {"{\"alpha\":\"inf\"}", "alpha"},
      {"{\"alpha\":1.5}", "alpha"},
      {"{\"alpha\":-0.5}", "alpha"},
      {"{\"alpha_steps\":-3}", "alpha_steps"},
      {"{\"gpus\":0}", "gpus"},
      {"{\"gpus\":12}", "gpus"},
      {"{\"gpus\":8.7}", "gpus"},
      {"{\"gpus\":1e10}", "gpus"},
      {"{\"kind\":\"strategy\",\"tp\":4e10}", "tp"},
      {"{\"seq\":\"1.5K\"}", "seq"},
      {"{\"seq\":1e400}", "seq"},
      {"{\"host_gib\":-1}", "host_gib"},
      {"{\"host_gib\":1e30}", "host_gib"},
      {"{\"kind\":\"maxseq\",\"step\":0}", "step"},
      {"{\"kind\":\"maxseq\",\"cap\":0}", "cap"},
      // Past the simulator's integer range: a division by zero in the
      // strategy sweep, and overflowing tensor byte counts.
      {"{\"gpus\":1073741824}", "gpus"},
      {"{\"seq\":\"1125899906842624K\"}", "seq"},
  };
  for (const auto& leg : bad) {
    const auto request = memo::serve::ParsePlanRequestJson(leg.line);
    ASSERT_FALSE(request.ok()) << "accepted: " << leg.line;
    EXPECT_EQ(request.status().code(), memo::StatusCode::kInvalidArgument)
        << leg.line << ": " << request.status().ToString();
    if (leg.field != nullptr) {
      EXPECT_EQ(request.status().message().rfind(std::string(leg.field) + " ",
                                                 0),
                0u)
          << leg.line << ": " << request.status().ToString();
    }
  }
}

TEST(ProtocolTest, EveryJsonEscapedStringReadsBackExactly) {
  // Each byte alone, then all of them in one string: whatever JsonEscape
  // writes, a request line carries and the reader returns byte for byte.
  std::vector<std::string> texts;
  std::string all_bytes;
  for (int byte = 0; byte < 256; ++byte) {
    texts.push_back(std::string(1, static_cast<char>(byte)) + "x");
    all_bytes.push_back(static_cast<char>(byte));
  }
  texts.push_back(all_bytes);
  for (const std::string& text : texts) {
    const std::string escaped = memo::serve::JsonEscape(text);
    const std::string line =
        "{\"model\":\"7B\",\"note\":\"" + escaped + "\"}";
    const auto request = memo::serve::ParsePlanRequestJson(line);
    EXPECT_TRUE(request.ok()) << escaped << ": "
                              << request.status().ToString();
    memo::serve::JsonObject object;
    const memo::Status read = memo::serve::ReadJsonObject(line, &object);
    ASSERT_TRUE(read.ok()) << escaped << ": " << read.ToString();
    EXPECT_EQ(object.Get("note"), text) << escaped;
  }

  // \r and \u00XX read as their text, in either hex case.
  const auto seven_b =
      memo::serve::ParsePlanRequestJson("{\"model\":\"\\u0037B\"}");
  ASSERT_TRUE(seven_b.ok()) << seven_b.status().ToString();
  EXPECT_EQ(seven_b->Fingerprint(),
            memo::serve::ParsePlanRequestJson("{\"model\":\"7B\"}")
                ->Fingerprint());
  memo::serve::JsonObject upper;
  ASSERT_TRUE(
      memo::serve::ReadJsonObject("{\"k\":\"\\u001F\\r\"}", &upper).ok());
  EXPECT_EQ(upper.Get("k"), "\x1f\r");

  // Escapes JsonEscape never writes stay refused.
  for (const char* line :
       {"{\"k\":\"\\b\"}", "{\"k\":\"\\f\"}", "{\"k\":\"\\u0080\"}",
        "{\"k\":\"\\u00e9\"}", "{\"k\":\"\\ud83d\\ude00\"}",
        "{\"k\":\"\\u12\"}", "{\"k\":\"\\u00g1\"}", "{\"k\":\"\\x41\"}"}) {
    memo::serve::JsonObject object;
    EXPECT_EQ(memo::serve::ReadJsonObject(line, &object).code(),
              memo::StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(ProtocolTest, TheReaderKeepsNestedValuesAsRawText) {
  // An answer's nested plan reads back as the payload SerializePlanResult
  // wrote; its top-level fields read beside it.
  const std::string payload =
      memo::serve::SerializePlanResult(ExecutePlanRequest(SmallRequest()));
  const std::string line =
      memo::serve::BuildResponseLine(memo::OkStatus(), 0x1234, false, payload);
  memo::serve::JsonObject answer;
  ASSERT_TRUE(memo::serve::ReadJsonObject(line, &answer).ok()) << line;
  EXPECT_EQ(answer.Get("plan"), payload);
  EXPECT_EQ(answer.Get("code"), "0");
  EXPECT_EQ(answer.Get("cache_hit"), "false");
  EXPECT_EQ(answer.Get("fingerprint"), "0x0000000000001234");
  EXPECT_EQ(answer.nested, (std::vector<std::string>{"plan"}));

  // Brackets inside strings do not count; mismatched or open ones fail.
  memo::serve::JsonObject arrays;
  ASSERT_TRUE(memo::serve::ReadJsonObject(
                  "{\"a\":[1,{\"b\":\"]}\"}],\"c\":2}", &arrays)
                  .ok());
  EXPECT_EQ(arrays.Get("a"), "[1,{\"b\":\"]}\"}]");
  EXPECT_EQ(arrays.Get("c"), "2");
  for (const char* line : {"{\"a\":[1,2}", "{\"a\":{\"b\":1}", "{\"a\":[\"]"}) {
    memo::serve::JsonObject object;
    EXPECT_EQ(memo::serve::ReadJsonObject(line, &object).code(),
              memo::StatusCode::kInvalidArgument)
        << line;
    EXPECT_EQ(object.nested, (std::vector<std::string>{"a"})) << line;
  }

  // A request refuses a nested value before any field, and before a syntax
  // error that follows it.
  for (const char* line :
       {"{\"gpus\":12,\"tp\":{\"a\":1}}", "{\"gpus\":12,\"tp\":{\"a\":1}",
        "{\"tp\":[1,2}, junk"}) {
    const auto request = memo::serve::ParsePlanRequestJson(line);
    ASSERT_FALSE(request.ok()) << line;
    EXPECT_EQ(request.status().message(),
              "nested values are not supported (key \"tp\")");
  }
}

TEST(ProtocolTest, StrategyQueriesRunTheSystemRecipe) {
  // What memo_cli builds from `run --system deepspeed --sp 8 --seq 256K`
  // (its flags, plus the kind `run` picks) and the wire line with the same
  // fields are one request: the system's recipe fills the fields neither
  // spells, so both equal the strategy EnumerateStrategies would try.
  const struct {
    memo::serve::PlanRequestFields cli;
    const char* line;
    memo::parallel::SystemKind system;
    std::int64_t seq;
    memo::parallel::ParallelStrategy strategy;
  } legs[] = {
      {{{"kind", "strategy"}, {"system", "deepspeed"}, {"sp", "8"},
        {"seq", "256K"}},
       "{\"kind\":\"strategy\",\"system\":\"deepspeed\",\"sp\":8,"
       "\"seq\":\"256K\"}",
       memo::parallel::SystemKind::kDeepSpeed,
       256 * memo::kSeqK,
       {.ulysses_sp = 8, .zero_stage = 3, .full_recompute = true}},
      {{{"kind", "strategy"}, {"system", "megatron"}, {"tp", "4"},
        {"cp", "2"}, {"seq", "128K"}},
       "{\"kind\":\"strategy\",\"system\":\"megatron\",\"tp\":4,"
       "\"cp\":2,\"seq\":\"128K\"}",
       memo::parallel::SystemKind::kMegatron,
       128 * memo::kSeqK,
       {.tp = 4, .cp = 2, .full_recompute = true}},
  };
  for (const auto& leg : legs) {
    const auto cli = memo::serve::ParsePlanRequestFields(leg.cli);
    const auto wire = memo::serve::ParsePlanRequestJson(leg.line);
    ASSERT_TRUE(cli.ok()) << cli.status().ToString();
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(cli->Fingerprint(), wire->Fingerprint()) << leg.line;

    PlanRequest expected = memo::testplan::Request(
        memo::model::Gpt7B(), leg.seq, memo::hw::PaperCluster(8), leg.system);
    expected.kind = PlanQueryKind::kStrategy;
    expected.strategy = leg.strategy;
    EXPECT_EQ(wire->CanonicalString(), expected.CanonicalString())
        << leg.line;
  }

  // A field the query spells wins over the recipe.
  const auto spelled = memo::serve::ParsePlanRequestJson(
      "{\"kind\":\"strategy\",\"system\":\"deepspeed\",\"sp\":8,"
      "\"zero\":1,\"full_recompute\":false}");
  ASSERT_TRUE(spelled.ok()) << spelled.status().ToString();
  EXPECT_EQ(spelled->strategy.zero_stage, 1);
  EXPECT_FALSE(spelled->strategy.full_recompute);
}

TEST(ProtocolTest, SerializationIsDeterministic) {
  const PlanResult result = ExecutePlanRequest(SmallRequest());
  const std::string a = memo::serve::SerializePlanResult(result);
  const std::string b =
      memo::serve::SerializePlanResult(ExecutePlanRequest(SmallRequest()));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"mfu\":"), std::string::npos);
}

TEST(SocketServerTest, AnswersQueriesOverAUnixSocketWithWarmHits) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_test.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  const std::string request_line =
      "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\",\"gpus\":8,"
      "\"tp\":4,\"cp\":2}";

  const auto cold =
      memo::serve::QueryOverSocket(socket_path, request_line, 10);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(AnswerField(*cold, "cache_hit"), "false") << *cold;

  const auto warm =
      memo::serve::QueryOverSocket(socket_path, request_line, 10);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(AnswerField(*warm, "cache_hit"), "true") << *warm;

  // The response embeds the payload; cold and warm must match bit-for-bit
  // outside the cache_hit flag itself.
  const std::string cold_plan = AnswerField(*cold, "plan");
  const std::string warm_plan = AnswerField(*warm, "plan");
  ASSERT_FALSE(cold_plan.empty()) << *cold;
  EXPECT_EQ(cold_plan, warm_plan);
  EXPECT_NE(cold_plan.find("\"mfu\":"), std::string::npos);

  // A malformed line gets an error response on the same connection and
  // does not take the server down.
  const auto error =
      memo::serve::QueryOverSocket(socket_path, "this is not json", 5);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  const std::string code = AnswerField(*error, "code");
  ASSERT_FALSE(code.empty()) << *error;
  EXPECT_NE(code, "0");

  const auto after =
      memo::serve::QueryOverSocket(socket_path, request_line, 5);
  EXPECT_TRUE(after.ok());

  socket_server.Stop();
  // The socket file is removed on shutdown.
  FILE* f = std::fopen(socket_path.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(SocketServerTest, MaxRequestsStopsTheServerAfterTheBudget) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_budget.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.max_requests = 2;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  const std::string line =
      "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\",\"gpus\":8,"
      "\"tp\":4,\"cp\":2}";
  EXPECT_TRUE(memo::serve::QueryOverSocket(socket_path, line, 10).ok());
  EXPECT_TRUE(memo::serve::QueryOverSocket(socket_path, line, 5).ok());

  socket_server.Wait();  // returns because the budget is exhausted
  EXPECT_GE(socket_server.requests_served(), 2);
  socket_server.Stop();
}

/// Raw AF_UNIX client for the abuse tests below (QueryOverSocket always
/// sends a complete line, which is exactly what these must not do).
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

/// Reads until EOF or `deadline_ms` elapses; returns everything received.
std::string RecvAll(int fd, int deadline_ms) {
  std::string out;
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms);
  char buf[512];
  while (std::chrono::steady_clock::now() < stop_at) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // clean close
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return out;
}

TEST(SocketServerTest, HealthRequestAnswersWithoutTouchingTheSolver) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_health.sock";
  std::remove(socket_path.c_str());

  // A solver that records if it ever runs: health must not solve.
  std::atomic<bool> solver_ran{false};
  PlanServerOptions server_options;
  server_options.solver = [&](const PlanRequest&) -> PlanResult {
    solver_ran = true;
    return PlanResult{};
  };
  PlanServer server(server_options);
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  // Every spelling of the probe: the bare word, and any JSON object whose
  // kind is health, whitespace included.
  for (const char* probe :
       {"health", "{\"kind\":\"health\"}", "{\"kind\": \"health\"}",
        "{ \"kind\" : \"health\" }"}) {
    const auto response =
        memo::serve::QueryOverSocket(socket_path, probe, 10);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(AnswerField(*response, "code"), "0") << probe << ": "
                                                   << *response;
    EXPECT_NE(response->find("\"state\":\"serving\""), std::string::npos)
        << *response;
    EXPECT_NE(response->find("\"cache_entries\":"), std::string::npos);
  }
  // Health probes are not requests: the budget counter must not move and
  // the solver never runs.
  EXPECT_EQ(socket_server.requests_served(), 0);
  EXPECT_FALSE(solver_ran.load());
  socket_server.Stop();
}

TEST(SocketServerTest, OutOfDomainLinesAreAnsweredAndNeverSolved) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_domain.sock";
  std::remove(socket_path.c_str());

  // The real solver: a line that reached it would abort the process.
  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  const int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  const std::string lines = "{\"alpha\":\"nan\"}\n{\"gpus\":12}\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(lines.size()));
  std::string answers;
  const auto stop_at =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::count(answers.begin(), answers.end(), '\n') < 2 &&
         std::chrono::steady_clock::now() < stop_at) {
    char buf[512];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      answers.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ::close(fd);
  const std::size_t split = answers.find('\n');
  ASSERT_NE(split, std::string::npos) << answers;
  const std::string first = answers.substr(0, split);
  const std::string second = answers.substr(split + 1);
  EXPECT_NE(first.find("\"status\":\"INVALID_ARGUMENT\""), std::string::npos)
      << first;
  EXPECT_NE(first.find("alpha must be"), std::string::npos) << first;
  EXPECT_NE(second.find("\"status\":\"INVALID_ARGUMENT\""),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("gpus must be"), std::string::npos) << second;

  const auto health = memo::serve::QueryOverSocket(socket_path, "health", 10);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health->find("\"state\":\"serving\""), std::string::npos)
      << *health;
  EXPECT_EQ(server.cache().stats().entries, 0);
  socket_server.Stop();
}

TEST(SocketServerTest, OversizedRequestLineIsRejectedAndClosed) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_maxline.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.max_line_bytes = 128;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  // A complete line over the cap gets one INVALID_ARGUMENT response.
  const std::string oversized(512, 'x');
  const auto response =
      memo::serve::QueryOverSocket(socket_path, oversized, 10);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("INVALID_ARGUMENT"), std::string::npos)
      << *response;

  // A never-terminated line over the cap is cut off mid-stream: the
  // buffer cannot be grown without bound by withholding the newline.
  const int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  const std::string endless(512, 'y');  // no trailing newline
  ASSERT_EQ(::send(fd, endless.data(), endless.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(endless.size()));
  const std::string answer = RecvAll(fd, 2000);
  EXPECT_NE(answer.find("INVALID_ARGUMENT"), std::string::npos) << answer;
  ::close(fd);

  // The server survives both abuses.
  const auto after = memo::serve::QueryOverSocket(
      socket_path,
      "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\",\"gpus\":8,"
      "\"tp\":4,\"cp\":2}",
      5);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  socket_server.Stop();
}

TEST(SocketServerTest, NoLineCapAnswersLongLines) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_nocap.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.max_line_bytes = 0;  // no cap
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  // A 2 MiB line, over the default cap, is read and answered, and the
  // connection stays open for the next line.
  const int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  const std::string lines = std::string(2 << 20, 'x') + "\nhealth\n";
  std::size_t sent = 0;
  while (sent < lines.size()) {
    const ssize_t n = ::send(fd, lines.data() + sent, lines.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);  // the server closes after its answers
  const std::string answers = RecvAll(fd, 5000);
  ::close(fd);
  const std::size_t split = answers.find('\n');
  ASSERT_NE(split, std::string::npos) << answers;
  EXPECT_EQ(AnswerField(answers.substr(0, split), "error"),
            "request is not a JSON object");
  EXPECT_NE(answers.find("\"state\":\"serving\"", split), std::string::npos)
      << answers;
  socket_server.Stop();
}

TEST(SocketServerTest, IdleConnectionIsTimedOutWithUnavailable) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_idle.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.idle_timeout_ms = 100;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  const int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  // Send nothing: the slow-loris defense must close the connection after
  // the idle window, with an UNAVAILABLE line first.
  const std::string answer = RecvAll(fd, 3000);
  EXPECT_NE(answer.find("UNAVAILABLE"), std::string::npos) << answer;
  ::close(fd);
  socket_server.Stop();
}

TEST(SocketServerTest, ConnectionCapEvictsTheStalestIdleConnection) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_cap.sock";
  std::remove(socket_path.c_str());

  PlanServer server;
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  options.max_connections = 1;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  const int idle_fd = RawConnect(socket_path);
  ASSERT_GE(idle_fd, 0);
  // Give the accept loop time to register the idle connection.
  while (socket_server.active_connections() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // A second connection at the cap evicts the idle one and is served.
  const auto response = memo::serve::QueryOverSocket(
      socket_path,
      "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\",\"gpus\":8,"
      "\"tp\":4,\"cp\":2}",
      10);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(AnswerField(*response, "code"), "0") << *response;

  // The evicted connection observes EOF (possibly after an error line).
  bool closed = false;
  const auto eof_deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(3000);
  char buf[256];
  while (std::chrono::steady_clock::now() < eof_deadline) {
    const ssize_t n = ::recv(idle_fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(closed) << "evicted connection was never closed";
  ::close(idle_fd);
  socket_server.Stop();
}

namespace eintr {
void NoopHandler(int) {}
}  // namespace eintr

TEST(SocketServerTest, BlockedClientReadSurvivesSignalInterruption) {
  // Regression for the EINTR audit: a client blocked in recv waiting for
  // a slow solve must resume the read when a signal interrupts it, not
  // fail the query.
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = eintr::NoopHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: recv returns EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  const std::string socket_path =
      ::testing::TempDir() + "memo_serve_eintr.sock";
  std::remove(socket_path.c_str());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::condition_variable entered_cv;
  bool entered = false;

  PlanServerOptions server_options;
  server_options.solver = [&](const PlanRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mu);
      entered = true;
    }
    entered_cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return ExecutePlanRequest(request);
  };
  PlanServer server(server_options);
  memo::serve::SocketServerOptions options;
  options.socket_path = socket_path;
  memo::serve::SocketServer socket_server(&server, options);
  ASSERT_TRUE(socket_server.Start().ok());

  memo::StatusOr<std::string> response = memo::InternalError("unset");
  std::thread client([&] {
    response = memo::serve::QueryOverSocket(
        socket_path,
        "{\"kind\":\"strategy\",\"model\":\"7B\",\"seq\":\"64K\",\"gpus\":8,"
        "\"tp\":4,\"cp\":2}",
        10);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    entered_cv.wait(lock, [&] { return entered; });
  }

  // The client is now blocked in recv (the solver is gated). Pepper it
  // with signals, then let the solve finish.
  for (int i = 0; i < 5; ++i) {
    pthread_kill(client.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  client.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(AnswerField(*response, "code"), "0") << *response;

  socket_server.Stop();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
}

TEST(ProtocolTest, ErrorResponsesCarryAMachineReadableRetryableFlag) {
  const std::string shed =
      memo::serve::BuildErrorResponseLine(memo::UnavailableError("full"));
  EXPECT_NE(shed.find("\"retryable\":true"), std::string::npos) << shed;

  const std::string expired = memo::serve::BuildErrorResponseLine(
      memo::DeadlineExceededError("too slow"));
  EXPECT_NE(expired.find("\"retryable\":true"), std::string::npos)
      << expired;
  EXPECT_NE(expired.find("DEADLINE_EXCEEDED"), std::string::npos);

  const std::string parse = memo::serve::BuildErrorResponseLine(
      memo::InvalidArgumentError("bad json"));
  EXPECT_NE(parse.find("\"retryable\":false"), std::string::npos) << parse;
}

TEST(SnapshotTest, RoundTripRestoresBitIdenticalPayloads) {
  const std::string path = ::testing::TempDir() + "memo_snap_rt.bin";
  std::remove(path.c_str());

  PlanServer cold;
  const QueryOutcome a = cold.Query(SmallRequest(64 * memo::kSeqK));
  const QueryOutcome b = cold.Query(SmallRequest(96 * memo::kSeqK));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());

  const auto saved = memo::serve::SaveCacheSnapshot(path, cold.cache());
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, 2);

  PlanServer warm;
  const auto loaded = memo::serve::LoadCacheSnapshot(path, &warm.cache());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2);

  // Restored entries answer as cache hits with the exact cold bytes.
  const QueryOutcome ra = warm.Query(SmallRequest(64 * memo::kSeqK));
  EXPECT_TRUE(ra.cache_hit);
  ASSERT_NE(ra.plan, nullptr);
  EXPECT_EQ(ra.plan->payload, a.plan->payload);
  const QueryOutcome rb = warm.Query(SmallRequest(96 * memo::kSeqK));
  EXPECT_TRUE(rb.cache_hit);
  EXPECT_EQ(rb.plan->payload, b.plan->payload);

  std::remove(path.c_str());
}

TEST(SnapshotTest, WarmRestartKeepsRecency) {
  const std::string path = ::testing::TempDir() + "memo_snap_lru.bin";
  std::remove(path.c_str());

  // Keys below 2^48 share one shard. Touch them into the recency order 1,
  // 4, 3, 2 (most recent first), save, and restore into a cache with room
  // for two of them: the two most recent must stay.
  memo::serve::PlanCache saved_cache;
  for (std::uint64_t key : {2, 3, 4, 1}) {
    auto plan = std::make_shared<memo::serve::CachedPlan>();
    plan->payload = "plan-" + std::to_string(key);
    saved_cache.Restore(key, plan);
  }
  ASSERT_TRUE(memo::serve::SaveCacheSnapshot(path, saved_cache).ok());
  const auto stats = saved_cache.stats();
  ASSERT_EQ(stats.entries, 4);

  memo::serve::PlanCacheOptions room_for_two;
  room_for_two.capacity_bytes =
      stats.resident_bytes / 2 * memo::serve::PlanCache::kShards;
  memo::serve::PlanCache restored(room_for_two);
  const auto loaded = memo::serve::LoadCacheSnapshot(path, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(restored.stats().entries, 2);
  EXPECT_NE(restored.Lookup(1), nullptr);
  EXPECT_NE(restored.Lookup(4), nullptr);
  EXPECT_EQ(restored.Lookup(3), nullptr);
  EXPECT_EQ(restored.Lookup(2), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptSnapshotsAreRejectedAndTheCacheStaysCold) {
  const std::string path = ::testing::TempDir() + "memo_snap_bad.bin";
  std::remove(path.c_str());

  PlanServer cold;
  ASSERT_TRUE(cold.Query(SmallRequest()).status.ok());
  ASSERT_TRUE(memo::serve::SaveCacheSnapshot(path, cold.cache()).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);

  const auto write_variant = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Flipped payload byte, truncated tail, and bad magic must each be
  // rejected with the cache left untouched.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x5a;
  std::string truncated = bytes.substr(0, bytes.size() - 9);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  // An intact snapshot of an older format version is refused too, so the
  // service starts cold: v1 holds keys no request fingerprints to any more,
  // and v2 payloads carry a "degraded" field no cold solve produces now.
  std::vector<std::string> variants = {flipped, truncated, bad_magic};
  for (const char version : {1, 2}) {
    std::string old_version = bytes.substr(0, bytes.size() - 8);
    old_version[8] = version;  // little-endian u32 after the 8-byte magic
    const std::uint64_t sum =
        memo::Fnv1a64(old_version.data(), old_version.size());
    for (int i = 0; i < 8; ++i) {
      old_version.push_back(static_cast<char>(sum >> (8 * i)));
    }
    variants.push_back(old_version);
  }
  // A re-sealed 24-byte snapshot that declares 2^32 - 1 entries: the count
  // is checked against the bytes left before anything is reserved for it.
  std::string huge_count = bytes.substr(0, 12);
  for (int i = 0; i < 4; ++i) huge_count.push_back('\xff');
  const std::uint64_t huge_sum =
      memo::Fnv1a64(huge_count.data(), huge_count.size());
  for (int i = 0; i < 8; ++i) {
    huge_count.push_back(static_cast<char>(huge_sum >> (8 * i)));
  }
  variants.push_back(huge_count);
  for (const std::string& variant : variants) {
    write_variant(variant);
    PlanServer warm;
    const auto loaded = memo::serve::LoadCacheSnapshot(path, &warm.cache());
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), memo::StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    EXPECT_EQ(warm.cache().stats().entries, 0);
  }

  // A missing file is the normal first boot: kNotFound, not corruption.
  std::remove(path.c_str());
  PlanServer fresh;
  const auto missing = memo::serve::LoadCacheSnapshot(path, &fresh.cache());
  EXPECT_EQ(missing.status().code(), memo::StatusCode::kNotFound)
      << missing.status().ToString();
}

TEST(SnapshotTest, ArmedFaultSitesFailTheSnapshotNotTheProcess) {
  const std::string path = ::testing::TempDir() + "memo_snap_fault.bin";
  std::remove(path.c_str());

  PlanServer server;
  ASSERT_TRUE(server.Query(SmallRequest()).status.ok());

  memo::FaultRule once;
  once.nth = 1;
  memo::FaultInjector::Global().Arm("serve.snapshot_write", once);
  EXPECT_FALSE(memo::serve::SaveCacheSnapshot(path, server.cache()).ok());
  memo::FaultInjector::Global().Reset();

  ASSERT_TRUE(memo::serve::SaveCacheSnapshot(path, server.cache()).ok());
  memo::FaultInjector::Global().Arm("serve.snapshot_read", once);
  PlanServer warm;
  EXPECT_FALSE(
      memo::serve::LoadCacheSnapshot(path, &warm.cache()).ok());
  memo::FaultInjector::Global().Reset();
  EXPECT_TRUE(
      memo::serve::LoadCacheSnapshot(path, &warm.cache()).ok());
  std::remove(path.c_str());
}

}  // namespace
