// perfbench: the repository benchmark binary. Runs one seeded workload
// against the memo libraries, checks its outputs, and prints one JSON result
// line (the last line of stdout):
//
//   perfbench --workload train_longctx|train_spill --seed N
//             --seconds S --trace 0|1 [--smoke 1] [--describe 1]
//             [--commit REV]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. Exit status: 0 when every
// output check held, 1 on a check failure (the result line is still
// printed, with "correct": false), 2 on bad arguments (nothing printed).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "serve/protocol.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--smoke") {
      options->smoke = value == "1";
    } else if (flag == "--describe") {
      options->describe = value == "1";
    } else if (flag == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  return options->workload == "train_longctx" ||
         options->workload == "train_spill";
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train_longctx|train_spill "
                 "--seed N --seconds S --trace 0|1 [--smoke 1] "
                 "[--describe 1] [--commit REV]\n");
    return 2;
  }
  if (options.describe) {
    std::printf("%s\n", perfbench::DescribeTrainWorkload(options).c_str());
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  const int lanes = perfbench::TrainLanes();
  memo::ThreadPool::SetGlobalThreads(lanes);

  RunResult result;
  perfbench::RunTrainWorkload(options, &result);
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.Mismatch(m.name + " is not finite");
  }

  // Info line: host fingerprint plus the run's sample counts and notes.
  std::string info = "{\"host\": " +
                     perfbench::HostFingerprintJson(options.commit, lanes) +
                     ", \"workload\": \"" + options.workload +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0");
  for (const auto& [key, value] : result.info) {
    info += ", \"" + key + "\": \"" + memo::serve::JsonEscape(value) + "\"";
  }
  info += "}";
  std::printf("%s\n%s\n", info.c_str(), ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
