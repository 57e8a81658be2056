// The planning service's per-layer figures, measured on train_spill's traced
// run. The service has no workload of its own: its end-to-end figures
// (queries per second, query latency) moved by 25-30% between runs of the
// same code on a shared host, past the largest bound a gate may use, so they
// are reported here, without a bound.
//
// A seeded request stream runs in-process from two threads against a
// PlanServer with two solver sessions, with obs::TraceRecorder on. The
// stream is drawn over the Table-2 presets x sequence length x GPU count x
// {memo, megatron, deepspeed} x {best, strategy, maxseq}. A third of the
// requests repeat an earlier fingerprint, so work splits between cache hits
// and cold solves. The fresh requests split evenly over the three kinds: no
// measured query mix exists to copy, and an even split assumes none. The
// pass exercises serve, core, planner, solver, sim and alloc.
//
// The service's own spans (serve_request, plan_solve) come from the
// recorder; calls that record no span (the cache fast path, parsing,
// serializing, the socket, the alpha LP, PlanMemory, ReplayTrace) are timed
// with the benchmark's own clock.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc/trace_replay.h"
#include "bench_util.h"
#include "obs/trace_recorder.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/alpha_solver.h"
#include "core/plan_request.h"
#include "model/activation_spec.h"
#include "parallel/strategy.h"
#include "planner/bilevel_planner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_server.h"

namespace perfbench {
namespace {

namespace core = memo::core;
namespace serve = memo::serve;

constexpr const char* kModels[] = {"7B", "13B", "30B", "65B"};
constexpr int kGpus[] = {8, 16, 32, 64};
constexpr const char* kSystems[] = {"memo", "megatron", "deepspeed"};
/// Sequence lengths are multiples of 8K up to 1024K. A maxseq scan runs in
/// steps of gpus x (16K, 17K, ... 64K) with a cap of eight steps. The 16 x 49
/// maxseq identities bound the stream at about 3,500 requests.
constexpr int kSeqSteps = 128;
constexpr int kMaxSeqStepChoices = 49;
constexpr int kMaxSeqPoints = 8;
/// Kinds of the fresh requests, dealt from a seeded shuffle of one card per
/// kind so every run sees the same even mix.
constexpr const char* kKinds[] = {"best", "strategy", "maxseq"};
/// Model x GPU count x system combinations; each kind deals them from its
/// own shuffled deck, so every seed spreads its solves over the same set.
constexpr int kCombos = 4 * 4 * 3;

/// Deals 0..n-1 in seeded random order, reshuffling when exhausted.
class Deck {
 public:
  explicit Deck(int n) : n_(n) {}
  int Deal(memo::Rng& rng) {
    if (cards_.empty()) {
      for (int i = 0; i < n_; ++i) cards_.push_back(i);
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.NextBounded(i + 1)]);
      }
    }
    const int card = cards_.back();
    cards_.pop_back();
    return card;
  }

 private:
  int n_;
  std::vector<int> cards_;
};

struct Request {
  std::string line;
  std::string kind;  // best | strategy | maxseq
  bool repeat = false;
};

memo::parallel::SystemKind SystemByName(const std::string& name) {
  return name == "memo"       ? memo::parallel::SystemKind::kMemo
         : name == "megatron" ? memo::parallel::SystemKind::kMegatron
                              : memo::parallel::SystemKind::kDeepSpeed;
}

/// Draws a request of `kind` for the model/GPU/system `combo` whose identity
/// is new to the stream, or returns an empty line when 64 draws found none.
/// The identity leaves the system out: PlanRequest::CanonicalString hashes
/// the system name through the bool overload of FingerprintBuilder::Add, so
/// two requests that differ only in system share a fingerprint and the cache
/// answers one with the other's plan. The stream never holds such a pair.
/// Strategy requests take one of the strategies the planner itself
/// enumerates, so each is valid for its system.
Request FreshRequest(const std::string& kind, int combo, memo::Rng& rng,
                     std::set<std::string>* identities) {
  const std::string model = kModels[combo % 4];
  const int gpus = kGpus[(combo / 4) % 4];
  const std::string system = kSystems[combo / 16];
  const std::string head =
      "{\"model\":\"" + model + "\",\"gpus\":" + std::to_string(gpus);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int seq_k = 8 * (1 + static_cast<int>(rng.NextBounded(kSeqSteps)));
    char body[256];
    if (kind == "maxseq") {
      const int step_index =
          static_cast<int>(rng.NextBounded(kMaxSeqStepChoices));
      const int step_k = gpus * (16 + step_index);
      std::snprintf(body, sizeof(body),
                    ",\"kind\":\"maxseq\",\"step\":\"%dK\",\"cap\":\"%dK\"}",
                    step_k, kMaxSeqPoints * step_k);
    } else if (kind == "best") {
      std::snprintf(body, sizeof(body), ",\"kind\":\"best\",\"seq\":\"%dK\"}",
                    seq_k);
    } else {
      const std::vector<memo::parallel::ParallelStrategy> candidates =
          memo::parallel::EnumerateStrategies(
              SystemByName(system), memo::model::ModelByName(model).value(),
              memo::hw::PaperCluster(gpus), seq_k * memo::kSeqK);
      if (candidates.empty()) continue;
      const memo::parallel::ParallelStrategy& s =
          candidates[rng.NextBounded(candidates.size())];
      std::snprintf(body, sizeof(body),
                    ",\"kind\":\"strategy\",\"seq\":\"%dK\",\"tp\":%d,"
                    "\"cp\":%d,\"pp\":%d,\"vp\":%d,\"dp\":%d,\"sp\":%d,"
                    "\"zero\":%d,\"full_recompute\":%s}",
                    seq_k, s.tp, s.cp, s.pp, s.virtual_pipeline, s.dp,
                    s.ulysses_sp, s.zero_stage,
                    s.full_recompute ? "true" : "false");
    }
    if (!identities->insert(head + body).second) continue;
    return {head + ",\"system\":\"" + system + "\"" + body, kind, false};
  }
  return {};
}

/// The seeded request stream. Every block of three requests holds two fresh
/// ones and one repeat of an earlier fresh request, so a third of the
/// fingerprints repeat. Prefixes are stable: a longer stream of the same
/// seed starts with the shorter one.
std::vector<Request> MakeStream(std::uint64_t seed, std::size_t count) {
  memo::Rng rng(Mix(seed ^ 0x504C414E4D4958ULL));
  std::set<std::string> identities;
  std::vector<std::size_t> fresh;  // indices of fresh requests so far
  Deck kinds(3);
  std::map<std::string, Deck> combos;
  std::size_t repeat_slot = 2;
  std::vector<Request> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    const std::size_t slot = stream.size() % 3;
    if (slot == 0) repeat_slot = fresh.empty() ? 2 : rng.NextBounded(3);
    if (slot == repeat_slot) {
      Request r = stream[fresh[rng.NextBounded(fresh.size())]];
      r.repeat = true;
      stream.push_back(std::move(r));
      continue;
    }
    const std::string kind = kKinds[kinds.Deal(rng)];
    Request r;
    for (int tries = 0; r.line.empty() && tries < kCombos; ++tries) {
      Deck& deck = combos.try_emplace(kind, kCombos).first->second;
      const int combo = deck.Deal(rng);
      r = FreshRequest(kind, combo, rng, &identities);
    }
    if (r.line.empty()) break;  // this kind's identities are used up
    fresh.push_back(stream.size());
    stream.push_back(std::move(r));
  }
  return stream;
}

/// Requests drawn for a pass of `seconds`: about three times what the
/// fastest measured pass answered.
std::size_t StreamLength(double seconds, bool smoke) {
  return smoke ? 40 : static_cast<std::size_t>(150.0 * seconds) + 400;
}

/// One persistent client connection speaking the newline-JSON protocol.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one line and returns the answer line; empty on I/O failure.
  std::string RoundTrip(const std::string& line) {
    if (fd_ < 0) return "";
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string answer = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return answer;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

serve::PlanServerOptions ServerOptions() {
  serve::PlanServerOptions options;
  options.sessions = 2;
  return options;
}

/// A PlanServer with its socket front end, stopped on destruction.
class Service {
 public:
  explicit Service(const std::string& socket_path)
      : server_(ServerOptions()), socket_(&server_, SocketOptions(socket_path)) {}
  ~Service() {
    socket_.Stop();
    server_.Shutdown();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  memo::Status Start() { return socket_.Start(); }

 private:
  static serve::SocketServerOptions SocketOptions(const std::string& path) {
    serve::SocketServerOptions options;
    options.socket_path = path;
    return options;
  }

  serve::PlanServer server_;
  serve::SocketServer socket_;
};

std::string FingerprintText(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fingerprint);
  return buf;
}

/// Answers one request line with a direct core::ExecutePlanRequest and
/// returns its serialized payload.
std::string DirectPayload(const std::string& line) {
  const auto request = serve::ParsePlanRequestJson(line);
  if (!request.ok()) return "parse error: " + request.status().ToString();
  return serve::SerializePlanResult(core::ExecutePlanRequest(*request));
}

/// What one in-process pass over the stream measured.
struct PassResult {
  std::size_t issued = 0;  // stream prefix the pass consumed
  double wall = 0.0;
  /// Every answered Query() call, and those the cache's fast path answered;
  /// that path records no span, so the benchmark times the calls itself.
  std::vector<double> query_ms;
  std::vector<double> hit_ms;
  /// Every answered query: its stream index and its plan.
  std::vector<std::pair<std::size_t, std::shared_ptr<const serve::CachedPlan>>>
      answers;
};

/// Runs the stream against `server` in-process from two threads until
/// `seconds` pass. Each answer's fingerprint must be its request's.
PassResult InProcessPass(serve::PlanServer& server,
                         const std::vector<Request>& stream, double seconds,
                         RunResult* result) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> wrong_fingerprints{0};
  std::vector<PassResult> per_client(2);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      PassResult& mine = per_client[c];
      for (;;) {
        if (SecondsSince(start) >= seconds) break;
        const std::size_t i = cursor.fetch_add(1);
        if (i >= stream.size()) break;
        const auto request = serve::ParsePlanRequestJson(stream[i].line);
        if (!request.ok()) continue;
        const auto t0 = Clock::now();
        const serve::QueryOutcome outcome = server.Query(*request);
        const double ms = SecondsSince(t0) * 1000.0;
        if (!outcome.status.ok()) continue;
        if (outcome.fingerprint != request->Fingerprint()) ++wrong_fingerprints;
        mine.query_ms.push_back(ms);
        if (outcome.cache_hit) mine.hit_ms.push_back(ms);
        mine.answers.emplace_back(i, outcome.plan);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PassResult pass;
  pass.wall = SecondsSince(start);
  pass.issued = std::min(cursor.load(), stream.size());
  for (PassResult& mine : per_client) {
    pass.query_ms.insert(pass.query_ms.end(), mine.query_ms.begin(),
                         mine.query_ms.end());
    pass.hit_ms.insert(pass.hit_ms.end(), mine.hit_ms.begin(),
                       mine.hit_ms.end());
    pass.answers.insert(pass.answers.end(), mine.answers.begin(),
                        mine.answers.end());
  }
  const auto answered = static_cast<std::int64_t>(pass.answers.size());
  result->attempted += static_cast<std::int64_t>(pass.issued);
  result->failed += static_cast<std::int64_t>(pass.issued) - answered;
  if (wrong_fingerprints > 0) {
    result->Mismatch(std::to_string(wrong_fingerprints.load()) +
                     " answers carry another request's fingerprint");
  }
  return pass;
}

/// Output checks on the answered plans: every answer of one fingerprint
/// carries the same bytes, and a seeded sample of distinct fingerprints
/// equals a direct core::ExecutePlanRequest.
void CheckAnswers(const PassResult& pass, const std::vector<Request>& stream,
                  std::uint64_t seed, RunResult* result) {
  std::map<std::uint64_t, std::size_t> first_index;
  std::map<std::uint64_t, const std::string*> payload_by_fp;
  for (const auto& [index, plan] : pass.answers) {
    const auto request = serve::ParsePlanRequestJson(stream[index].line);
    if (!request.ok()) continue;
    const std::uint64_t fp = request->Fingerprint();
    const auto [it, inserted] = payload_by_fp.emplace(fp, &plan->payload);
    if (inserted) {
      first_index.emplace(fp, index);
    } else if (*it->second != plan->payload) {
      result->Mismatch(stream[index].line +
                       ": payload differs between answers");
    }
  }
  std::vector<std::uint64_t> fps;
  for (const auto& entry : first_index) fps.push_back(entry.first);
  memo::Rng sample_rng(Mix(seed));
  const std::size_t samples = std::min<std::size_t>(fps.size(), 6);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t fp = fps[sample_rng.NextBounded(fps.size())];
    const std::string& line = stream[first_index[fp]].line;
    const std::string direct = DirectPayload(line);
    if (direct != *payload_by_fp[fp]) {
      result->Mismatch(line + ": served payload " + *payload_by_fp[fp] +
                       " differs from a direct ExecutePlanRequest: " + direct);
    }
  }
}

}  // namespace

void RunPlanService(const RunOptions& run, double seconds, RunResult* result) {
  // The planner runs on one pool lane: the two solver sessions are the
  // service's parallelism, and more lanes would oversubscribe the cores.
  const int lanes = memo::ThreadPool::Global().threads();
  memo::ThreadPool::SetGlobalThreads(1);
  const std::vector<Request> stream =
      MakeStream(run.seed, StreamLength(seconds, run.smoke));

  // serve: parsing each request line.
  std::vector<double> parse_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(stream.size(), 2000); ++i) {
    const auto t0 = Clock::now();
    const auto parsed = serve::ParsePlanRequestJson(stream[i].line);
    parse_us.push_back(SecondsSince(t0) * 1e6);
    if (!parsed.ok()) result->Mismatch("parse: " + parsed.status().ToString());
  }

  // The query path in-process with the recorder on.
  memo::obs::TraceRecorder& recorder = memo::obs::TraceRecorder::Global();
  PassResult pass;
  serve::PlanServer::Stats stats;
  {
    serve::PlanServer server(ServerOptions());
    recorder.Clear();
    recorder.Enable();
    pass = InProcessPass(server, stream, seconds, result);
    recorder.Disable();
    stats = server.stats();
  }
  const std::vector<ProgramSpan> spans = ProgramSpans();
  WriteProgramTrace(run.work_dir + "/spans-plan_service-" +
                        std::to_string(run.seed) + ".json",
                    "plan_spans", result);
  recorder.Clear();
  CheckAnswers(pass, stream, run.seed, result);

  // Misses are the serve_request spans that hold a plan_solve; each
  // plan_solve is one ExecutePlanRequest (plus serialization), and its
  // fingerprint names the request kind.
  std::map<std::uint64_t, std::size_t> index_by_fp;
  for (const auto& answer : pass.answers) {
    const auto request = serve::ParsePlanRequestJson(stream[answer.first].line);
    if (request.ok()) index_by_fp.emplace(request->Fingerprint(), answer.first);
  }
  std::vector<double> miss_ms;
  std::map<std::string, std::vector<double>> solve_ms;
  for (const ProgramSpan& span : spans) {
    if (span.name == "serve_request" && NestedMs(spans, span, "plan_solve") > 0) {
      miss_ms.push_back(span.ms());
    } else if (span.name == "plan_solve") {
      const auto it = index_by_fp.find(static_cast<std::uint64_t>(span.arg));
      if (it != index_by_fp.end()) {
        solve_ms[stream[it->second].kind].push_back(span.ms());
      }
    }
  }
  if (miss_ms.empty()) {
    result->Mismatch("the service recorded no serve_request spans");
  }

  // serve: serializing the answered plans.
  std::vector<double> serialize_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(pass.answers.size(), 500);
       ++i) {
    const serve::CachedPlan& plan = *pass.answers[i].second;
    const auto t0 = Clock::now();
    const std::string payload = serve::SerializePlanResult(plan.result);
    serialize_us.push_back(SecondsSince(t0) * 1e6);
    if (payload != plan.payload) {
      result->Mismatch("SerializePlanResult differs from the cached payload");
    }
  }

  // serve: a socket round trip of a health line.
  std::vector<double> rtt_us;
  {
    const std::string socket_path =
        run.work_dir + "/plan-" + std::to_string(::getpid()) + ".sock";
    Service service(socket_path);
    const memo::Status st = service.Start();
    Client client(socket_path);
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      const std::string answer = client.RoundTrip("health");
      rtt_us.push_back(SecondsSince(t0) * 1e6);
      if (!st.ok() || answer.find("\"serving\"") == std::string::npos) {
        result->Mismatch("health round trip: " + answer);
        break;
      }
    }
  }

  // core, planner, alloc: the alpha LP, the bi-level planner and the
  // caching-allocator replay on the shapes the first answered best queries
  // chose.
  std::vector<double> strategies_tried, lp_us, plan_ms, replay_ms;
  for (const auto& [index, plan] : pass.answers) {
    if (stream[index].kind != "best" || stream[index].repeat) continue;
    const core::PlanResult& answer = plan->result;
    strategies_tried.push_back(answer.strategies_tried);
    if (!answer.status.ok() || lp_us.size() >= (run.smoke ? 1u : 6u)) continue;
    const auto request = serve::ParsePlanRequestJson(stream[index].line);
    if (!request.ok()) continue;
    const memo::parallel::ParallelStrategy& s = answer.best.strategy;
    const std::int64_t seq_local = s.SeqLocal(request->seq);
    const memo::model::SkeletalLayout layout = memo::model::ComputeSkeletalLayout(
        request->model, 1, seq_local, s.tp);
    core::TieredAlphaInputs inputs;
    inputs.ram.s_input_bytes = layout.input_bytes;
    inputs.ram.s_attn_bytes = layout.attn_out_bytes;
    inputs.ram.s_others_bytes = layout.others_bytes;
    inputs.ram.pcie_bytes_per_second = 25e9;
    inputs.ram.layer_forward_seconds = answer.best.compute_seconds /
                                       std::max(1, request->model.num_layers);
    inputs.ram.num_layers = request->model.num_layers / s.pp;
    inputs.ram.host_bytes_per_gpu = request->cluster.host_bytes_per_gpu();
    // One LP solve takes about a microsecond: time a batch.
    const int reps = 200;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) core::SolveAlphaTiered(inputs).ok();
    lp_us.push_back(SecondsSince(t0) * 1e6 / reps);

    memo::model::ModelConfig stage = request->model;
    stage.num_layers = request->model.num_layers / s.pp;
    memo::model::TraceGenOptions trace_options;
    trace_options.seq_local = seq_local;
    trace_options.tensor_parallel = s.tp;
    trace_options.mode = memo::model::ActivationMode::kMemoBuffers;
    const memo::model::ModelTrace trace =
        memo::model::GenerateModelTrace(stage, trace_options);
    const auto t1 = Clock::now();
    const auto memory_plan = memo::planner::PlanMemory(trace);
    plan_ms.push_back(SecondsSince(t1) * 1000.0);
    if (!memory_plan.ok()) {
      result->Mismatch("PlanMemory: " + memory_plan.status().ToString());
    }
    const auto t2 = Clock::now();
    memo::alloc::ReplayTrace(trace.requests, {});
    replay_ms.push_back(SecondsSince(t2) * 1000.0);
  }
  memo::ThreadPool::SetGlobalThreads(lanes);

  result->Add("serve.queries_per_s", pass.answers.size() / pass.wall, "1/s");
  result->Add("serve.query_p50_ms", Median(pass.query_ms), "ms");
  result->Add("serve.query_p99_ms", Percentile(pass.query_ms, 0.99), "ms");
  result->Add("serve.parse_us", Median(parse_us), "us");
  result->Add("serve.serialize_us", Median(serialize_us), "us");
  result->Add("serve.socket_rtt_us", Median(rtt_us), "us");
  result->Add("serve.query_hit_ms", Median(pass.hit_ms), "ms");
  result->Add("serve.query_miss_ms", Median(miss_ms), "ms");
  result->Add("serve.cache_hit_ratio",
              static_cast<double>(pass.hit_ms.size()) /
                  std::max<std::size_t>(1, pass.answers.size()),
              "ratio");
  result->Add("serve.shed", static_cast<double>(stats.shed), "count");
  result->Add("core.solve_best_ms", Median(solve_ms["best"]), "ms");
  result->Add("core.solve_strategy_ms", Median(solve_ms["strategy"]), "ms");
  result->Add("core.solve_maxseq_ms", Median(solve_ms["maxseq"]), "ms");
  result->Add("core.strategies_tried", Median(strategies_tried), "count");
  result->Add("core.alpha_lp_us", Median(lp_us), "us");
  result->Add("planner.plan_memory_ms", Median(plan_ms), "ms");
  result->Add("alloc.replay_ms", Median(replay_ms), "ms");
  result->Note("plan_samples",
               std::to_string(pass.answers.size()) + " answered queries; " +
                   std::to_string(solve_ms["best"].size()) + " best, " +
                   std::to_string(solve_ms["strategy"].size()) +
                   " strategy, " + std::to_string(solve_ms["maxseq"].size()) +
                   " maxseq plan_solve spans");
}

std::string DescribePlanStream(std::uint64_t seed, double seconds) {
  const std::vector<Request> stream =
      MakeStream(seed, StreamLength(seconds, false));
  std::string out = "[";
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto request = serve::ParsePlanRequestJson(stream[i].line);
    out += (i == 0 ? "\"" : ",\"") +
           (request.ok() ? FingerprintText(request->Fingerprint())
                         : std::string("invalid")) +
           "\"";
  }
  return out + "]";
}

}  // namespace perfbench
