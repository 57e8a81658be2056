// Shared plumbing of the repository benchmark: run options, the result
// record and its JSON line, summary statistics, and the reading of the
// spans the memo libraries record into obs::TraceRecorder.
#ifndef MEMO_PERFBENCH_BENCH_UTIL_H_
#define MEMO_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny shapes and short phases: the benchmark's own end-to-end test.
  bool smoke = false;
  /// Print the generated inputs (trainer config, request fingerprints)
  /// instead of running them.
  bool describe = false;
  /// Source revision reported in the host fingerprint.
  std::string commit = "unknown";
  /// Scratch directory inside the checkout, relative to the working
  /// directory: spill files, the socket, the span dumps.
  std::string work_dir = ".bench_run";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of its mode, the
/// operation counts behind `failed / attempted`, and whether every output
/// check held.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form facts printed on the info line (sample counts, the host).
  std::vector<std::pair<std::string, std::string>> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Records a failed output check: it counts as a failed operation and
  /// makes the run incorrect.
  void Mismatch(const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Logical CPUs this process may run on.
int CpuCount();

/// Thread-pool lanes of the trainers: all cores but one, which is left to
/// the copier thread and the rest of the machine.
int TrainLanes();

/// CPU model, core count, SIMD tier, pool lanes and source revision as one
/// JSON object.
std::string HostFingerprintJson(const std::string& commit, int lanes);

/// Splitmix64 step: the benchmark derives every input from its seed with
/// this, so a seed names the same inputs on every host.
std::uint64_t Mix(std::uint64_t x);

/// One finished span of the program's own trace (obs::TraceRecorder): a
/// begin and an end event paired on the thread that emitted them.
struct ProgramSpan {
  std::string name;
  int tid = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
  /// The span's integer argument (layer, iteration, fingerprint), or 0.
  std::int64_t arg = 0;
  double ms() const { return (end_us - begin_us) / 1000.0; }
  bool Contains(const ProgramSpan& other) const {
    return other.tid == tid && other.begin_us >= begin_us &&
           other.end_us <= end_us;
  }
};

/// Turns every event the global recorder holds into spans, in begin order.
std::vector<ProgramSpan> ProgramSpans();

/// Milliseconds spent in spans called `name` nested inside `outer`.
double NestedMs(const std::vector<ProgramSpan>& spans,
                const ProgramSpan& outer, const std::string& name);

/// Writes the global recorder's events as Chrome trace JSON (chrome://tracing
/// or Perfetto) to `path` and names the file under `key` on the result's
/// info line.
void WriteProgramTrace(const std::string& path, const std::string& key,
                       RunResult* result);

/// Workload entry point (train_workloads.cc): fills `result` with the
/// end-to-end metrics, or with the per-layer metrics when options.trace is
/// set.
void RunTrainWorkload(const RunOptions& options, RunResult* result);

/// The planning service's per-layer metrics (plan_service.cc): a seeded
/// request stream through an in-process PlanServer for `seconds`, traced.
void RunPlanService(const RunOptions& options, double seconds,
                    RunResult* result);

/// --describe: the generated inputs as one JSON object, and the fingerprints
/// of the plan stream a pass of `seconds` draws, as a JSON array.
std::string DescribeTrainWorkload(const RunOptions& options);
std::string DescribePlanStream(std::uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // MEMO_PERFBENCH_BENCH_UTIL_H_
