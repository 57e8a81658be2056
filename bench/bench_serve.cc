// Load generator for the planning service (ours): N concurrent clients
// issue plan queries against an in-process PlanServer, cold (fresh cache —
// every query pays a real solve) and warm (same queries again — every
// query must hit the fingerprint cache). Reports p50/p99 latency and
// throughput per concurrency level, verifies that every warm payload is
// byte-identical to its cold solve, and writes BENCH_serve.json.
//
//   bench_serve [--smoke]
//
// --smoke shrinks the matrix to one fast level and keeps the correctness
// checks (bit-identity, warm hits, shedding accounting) — the ctest
// bench-smoke entry.
//
// Two hardening sweeps follow the latency matrix:
//   overload — more clients than sessions against a tiny admission queue
//   under a per-request deadline; reports the shed rate and the p99 of the
//   answered queries (aux = shed_rate).
//   restart  — cold solve -> snapshot -> fresh server: the first query
//   after a warm restart must be a cache hit priced like one (aux =
//   first-query latency over warm-hit latency; the acceptance bar is 2x,
//   vs ~1000x for a cold re-solve).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/deadline.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace {

using memo::core::PlanQueryKind;
using memo::core::PlanRequest;
using memo::serve::PlanServer;
using memo::serve::PlanServerOptions;
using memo::serve::QueryOutcome;

/// Distinct single-strategy requests (7B, TP=4 CP=2, varying sequence
/// length): each is one LP solve plus simulation — the realistic unit of
/// work a planning service answers.
std::vector<PlanRequest> MakeRequests(int count) {
  PlanRequest request;
  request.kind = PlanQueryKind::kStrategy;
  request.model = memo::model::Gpt7B();
  request.cluster = memo::hw::PaperCluster(8);
  request.strategy.tp = 4;
  request.strategy.cp = 2;
  std::vector<PlanRequest> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    request.seq = (64 + 32 * static_cast<std::int64_t>(i)) * memo::kSeqK;
    requests.push_back(request);
  }
  return requests;
}

struct PhaseResult {
  std::vector<double> latencies_ms;  // one per query, all clients merged
  double wall_ms = 0.0;
  std::int64_t queries = 0;
  std::int64_t cache_hits = 0;
};

/// `clients` threads sweep the request list `passes` times. With `disjoint`
/// set, client c only touches its own slice (requests.size() / clients
/// each) so every query is a genuine cold solve; otherwise all clients
/// sweep everything, colliding on the same fingerprints (pure cache hits in
/// the warm phase).
PhaseResult RunPhase(PlanServer& server,
                     const std::vector<PlanRequest>& requests, int clients,
                     int passes, bool disjoint,
                     std::map<std::uint64_t, std::string>* payloads,
                     std::mutex* payloads_mu) {
  PhaseResult result;
  std::mutex mu;
  std::vector<std::thread> threads;
  const auto phase_start = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      std::int64_t hits = 0;
      const std::size_t slice = requests.size() / clients;
      const std::size_t begin = disjoint ? static_cast<std::size_t>(c) * slice
                                         : 0;
      const std::size_t end =
          disjoint ? begin + slice : requests.size();
      for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t i = begin; i < end; ++i) {
          // Offset by client id so non-disjoint clients start on different
          // requests but still overlap most of the time.
          const PlanRequest& request =
              requests[disjoint
                           ? i
                           : (i + static_cast<std::size_t>(c)) %
                                 requests.size()];
          const auto start = std::chrono::steady_clock::now();
          const QueryOutcome outcome = server.Query(request);
          local.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
          if (!outcome.status.ok() || outcome.plan == nullptr) {
            std::fprintf(stderr, "query failed: %s\n",
                         outcome.status.ToString().c_str());
            std::exit(1);
          }
          if (outcome.cache_hit) ++hits;
          std::lock_guard<std::mutex> lock(*payloads_mu);
          auto it = payloads->find(outcome.fingerprint);
          if (it == payloads->end()) {
            payloads->emplace(outcome.fingerprint, outcome.plan->payload);
          } else if (it->second != outcome.plan->payload) {
            std::fprintf(stderr,
                         "payload for fingerprint 0x%016llx is not "
                         "bit-identical across queries\n",
                         static_cast<unsigned long long>(
                             outcome.fingerprint));
            std::exit(1);
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_ms.insert(result.latencies_ms.end(), local.begin(),
                                 local.end());
      result.cache_hits += hits;
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - phase_start)
                       .count();
  result.queries = static_cast<std::int64_t>(result.latencies_ms.size());
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> client_levels =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 4, 8};
  const int per_client = smoke ? 2 : 3;
  const int warm_passes = smoke ? 2 : 8;
  const int max_clients =
      *std::max_element(client_levels.begin(), client_levels.end());

  std::printf("Planning-as-a-service load test: %d plan queries per client, "
              "cold (fresh cache,\ndisjoint slices) vs warm (all clients "
              "sweep everything), %s\n\n",
              per_client, smoke ? "smoke matrix" : "1/4/8 clients");
  // Sized for the largest level; smaller levels use a prefix so the same
  // fingerprints recur across levels (and must produce identical payloads).
  const std::vector<PlanRequest> all_requests =
      MakeRequests(max_clients * per_client);

  memo::TablePrinter table({"clients", "phase", "queries", "p50", "p99",
                            "qps", "hit rate"});
  std::vector<memo::bench::BenchRecord> records;
  // Payloads must agree per fingerprint across phases AND concurrency
  // levels — the service's answers are pure functions of the request.
  std::map<std::uint64_t, std::string> payloads;
  std::mutex payloads_mu;

  for (const int clients : client_levels) {
    PlanServerOptions options;
    options.sessions = clients;
    PlanServer server(options);
    const std::vector<PlanRequest> requests(
        all_requests.begin(),
        all_requests.begin() + static_cast<std::size_t>(clients) * per_client);

    const PhaseResult cold = RunPhase(server, requests, clients, 1,
                                      /*disjoint=*/true, &payloads,
                                      &payloads_mu);
    const PhaseResult warm = RunPhase(server, requests, clients, warm_passes,
                                      /*disjoint=*/false, &payloads,
                                      &payloads_mu);
    server.Shutdown();

    // Every warm query must be answered from the cache: the cold phase
    // already solved every distinct request.
    if (warm.cache_hits != warm.queries) {
      std::fprintf(stderr,
                   "warm phase missed the cache: %lld hits / %lld queries\n",
                   static_cast<long long>(warm.cache_hits),
                   static_cast<long long>(warm.queries));
      return 1;
    }

    const double cold_p50 = Percentile(cold.latencies_ms, 0.5);
    const double warm_p50 = Percentile(warm.latencies_ms, 0.5);
    for (const PhaseResult* phase : {&cold, &warm}) {
      const bool is_cold = phase == &cold;
      const double p50 = is_cold ? cold_p50 : warm_p50;
      const double qps = static_cast<double>(phase->queries) /
                         (phase->wall_ms / 1e3);
      char qps_text[32];
      std::snprintf(qps_text, sizeof(qps_text), "%.0f", qps);
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.0f%%",
                    100.0 * static_cast<double>(phase->cache_hits) /
                        static_cast<double>(phase->queries));
      table.AddRow({std::to_string(clients), is_cold ? "cold" : "warm",
                    std::to_string(phase->queries), FmtMs(p50),
                    FmtMs(Percentile(phase->latencies_ms, 0.99)), qps_text,
                    rate});

      memo::bench::BenchRecord record;
      record.op = "serve_query_c" + std::to_string(clients);
      record.threads = clients;
      record.wall_ms = p50;
      record.kernel = is_cold ? "cold" : "warm";
      record.speedup_vs_serial = is_cold ? 1.0 : cold_p50 / warm_p50;
      records.push_back(record);
    }
  }
  table.Print(std::cout);

  // ---- Overload sweep: deadline pressure against a tiny admission queue.
  // More clients than sessions, one queue slot per session, and a real
  // per-request deadline: a production burst in miniature. Shed and
  // deadline-expired answers are the expected overload responses; what
  // matters is that answered queries keep a bounded p99 and nothing fails
  // with a non-overload status.
  {
    const int overload_clients = smoke ? 4 : 8;
    const int overload_sessions = 2;
    const int per_overload_client = smoke ? 3 : 6;
    PlanServerOptions options;
    options.sessions = overload_sessions;
    options.max_queue = overload_sessions;
    PlanServer server(options);
    const std::vector<PlanRequest> requests =
        MakeRequests(overload_clients * per_overload_client);

    std::mutex mu;
    std::vector<double> answered_ms;
    std::int64_t shed = 0;
    std::int64_t expired = 0;
    std::int64_t answered = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < overload_clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < per_overload_client; ++i) {
          const PlanRequest& request =
              requests[static_cast<std::size_t>(c * per_overload_client + i)];
          const auto start = std::chrono::steady_clock::now();
          const QueryOutcome outcome =
              server.Query(request, memo::Deadline::AfterMillis(2000));
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
          std::lock_guard<std::mutex> lock(mu);
          if (outcome.status.ok()) {
            ++answered;
            answered_ms.push_back(ms);
          } else if (outcome.status.IsUnavailable()) {
            ++shed;
          } else if (outcome.status.IsDeadlineExceeded()) {
            ++expired;
          } else {
            std::fprintf(stderr, "overload query failed oddly: %s\n",
                         outcome.status.ToString().c_str());
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    server.Shutdown();

    const std::int64_t total = answered + shed + expired;
    const double shed_rate =
        static_cast<double>(shed + expired) / static_cast<double>(total);
    const double p99 = Percentile(answered_ms, 0.99);
    std::printf("\noverload: %d clients / %d sessions, %lld queries -> "
                "%lld answered, %lld shed, %lld deadline-expired "
                "(shed rate %.0f%%), answered p99 %s\n",
                overload_clients, overload_sessions,
                static_cast<long long>(total),
                static_cast<long long>(answered),
                static_cast<long long>(shed),
                static_cast<long long>(expired), 100.0 * shed_rate,
                FmtMs(p99).c_str());
    if (answered == 0) {
      std::fprintf(stderr, "overload sweep answered nothing\n");
      return 1;
    }

    memo::bench::BenchRecord record;
    record.op = "serve_overload_p99";
    record.threads = overload_clients;
    record.wall_ms = p99;
    record.kernel = "overload";
    record.aux = shed_rate;
    record.aux_label = "shed_rate";
    records.push_back(record);
  }

  // ---- Warm-restart comparison: cold solve -> snapshot -> fresh server.
  {
    const std::string snapshot_path = "BENCH_serve_snapshot.bin";
    const int restart_requests = smoke ? 4 : 8;
    const std::vector<PlanRequest> requests = MakeRequests(restart_requests);

    // Both sides of the ratio are "min across keys": each key's first
    // post-restart query can only be measured once, so the floor over
    // several keys is the noise filter (the same role min plays in
    // BestWallMs at these microsecond scales).
    const auto min_query_ms = [](PlanServer& server,
                                 const std::vector<PlanRequest>& reqs,
                                 bool require_hit) {
      double best = 0.0;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto start = std::chrono::steady_clock::now();
        const QueryOutcome outcome = server.Query(reqs[i]);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!outcome.status.ok() || (require_hit && !outcome.cache_hit)) {
          std::fprintf(stderr, "restart comparison query failed\n");
          std::exit(1);
        }
        if (i == 0 || ms < best) best = ms;
      }
      return best;
    };

    // Generation 1: cold solves (timed — the "restart without a snapshot"
    // price), then a warm-hit baseline, then the shutdown snapshot.
    PlanServer first;
    const double cold_ms =
        min_query_ms(first, requests, /*require_hit=*/false);
    const double warm_hit_ms =
        min_query_ms(first, requests, /*require_hit=*/true);
    const auto saved =
        memo::serve::SaveCacheSnapshot(snapshot_path, first.cache());
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   saved.status().ToString().c_str());
      return 1;
    }
    first.Shutdown();

    // Generation 2: restore and pay the genuine first query per key.
    PlanServer second;
    const auto loaded =
        memo::serve::LoadCacheSnapshot(snapshot_path, &second.cache());
    if (!loaded.ok() || *loaded != restart_requests) {
      std::fprintf(stderr, "snapshot load failed\n");
      return 1;
    }
    const double snapshot_ms =
        min_query_ms(second, requests, /*require_hit=*/true);
    second.Shutdown();
    std::remove(snapshot_path.c_str());

    const double vs_warm = snapshot_ms / warm_hit_ms;
    const double vs_cold = cold_ms / snapshot_ms;
    std::printf("restart: first query after warm restart %s vs warm hit %s "
                "(%.2fx) vs cold solve %s (%.0fx faster than cold)\n",
                FmtMs(snapshot_ms).c_str(), FmtMs(warm_hit_ms).c_str(),
                vs_warm, FmtMs(cold_ms).c_str(), vs_cold);

    memo::bench::BenchRecord warm_record;
    warm_record.op = "serve_restart_warm_hit";
    warm_record.wall_ms = warm_hit_ms;
    warm_record.kernel = "warm";
    records.push_back(warm_record);

    memo::bench::BenchRecord cold_record;
    cold_record.op = "serve_restart_cold_solve";
    cold_record.wall_ms = cold_ms;
    cold_record.kernel = "cold";
    records.push_back(cold_record);

    memo::bench::BenchRecord snap_record;
    snap_record.op = "serve_restart_snapshot_first_query";
    snap_record.wall_ms = snapshot_ms;
    snap_record.kernel = "snapshot";
    snap_record.speedup_vs_serial = vs_cold;
    snap_record.aux = vs_warm;
    snap_record.aux_label = "vs_warm_hit";
    records.push_back(snap_record);
  }

  if (!memo::bench::WriteBenchJson("BENCH_serve.json", records)) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_serve.json (%zu records); %zu distinct "
              "fingerprints, all payloads bit-stable\n",
              records.size(), payloads.size());
  return 0;
}
