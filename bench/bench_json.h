#ifndef MEMO_BENCH_BENCH_JSON_H_
#define MEMO_BENCH_BENCH_JSON_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/table_printer.h"

namespace memo::bench {

/// One machine-readable benchmark measurement. `speedup_vs_serial` is the
/// serial-baseline wall time of the same op divided by this record's wall
/// time (1.0 for the baseline itself). `threads` is the pool size the row
/// actually ran with (not the requested size — the two can differ, and rows
/// were previously mislabeled when they did). `kernel` distinguishes the
/// preserved naive reference kernels from the dispatched optimized path,
/// and `simd` records the dispatch level the optimized path executed
/// ("scalar"/"avx2"/"avx512"; empty when the bench doesn't dispatch).
/// `parallel_efficiency` is speedup-per-lane against the same kernel at one
/// thread: (T_1thread / T_this) / threads. 1.0 for single-thread rows; on a
/// machine with fewer cores than the pool size it honestly reports < 1/N
/// (oversubscribed lanes cannot speed anything up) rather than being
/// normalized away.
struct BenchRecord {
  std::string op;
  int threads = 1;
  double wall_ms = 0.0;
  double speedup_vs_serial = 1.0;
  std::string kernel = "optimized";
  std::string simd;
  double parallel_efficiency = 1.0;
  /// Free-form secondary measurement whose meaning `aux_label` names (e.g.
  /// "shed_rate" for the serve overload sweep, "vs_warm_hit" for the
  /// warm-restart latency ratio). 0.0 with an empty label when unused.
  double aux = 0.0;
  std::string aux_label;
  /// Version of this row layout, emitted first in every record so the
  /// driver can dispatch parsers without sniffing fields. Bump when a field
  /// is added/renamed/changes meaning. v2 = v1 + parallel_efficiency;
  /// v3 = v2 + aux/aux_label. Declared last (with a default) so existing
  /// positional aggregate initializers keep compiling.
  int schema_version = 3;
};

/// Writes records as a JSON array (BENCH_*.json, consumed by the driver).
/// False, with the reason on stderr, when the file is not written whole.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<BenchRecord>& records) {
  std::string json = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    json += StrFormat(
        "  {\"schema_version\": %d, \"op\": \"%s\", "
        "\"threads\": %d, \"wall_ms\": %.3f, "
        "\"speedup_vs_serial\": %.3f, \"kernel\": \"%s\", "
        "\"simd\": \"%s\", \"parallel_efficiency\": %.3f, "
        "\"aux\": %.4f, \"aux_label\": \"%s\"}%s\n",
        r.schema_version, r.op.c_str(), r.threads, r.wall_ms,
        r.speedup_vs_serial, r.kernel.c_str(), r.simd.c_str(),
        r.parallel_efficiency, r.aux, r.aux_label.c_str(),
        i + 1 == records.size() ? "" : ",");
  }
  json += "]\n";
  const Status written =
      WriteWholeFile(path, json, "bench", WriteMode::kInPlace);
  if (!written.ok()) std::fprintf(stderr, "%s\n", written.ToString().c_str());
  return written.ok();
}

/// Best-of-`reps` wall time of `fn` in milliseconds (min filters scheduler
/// noise, which matters on small shared machines).
template <typename Fn>
double BestWallMs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace memo::bench

#endif  // MEMO_BENCH_BENCH_JSON_H_
