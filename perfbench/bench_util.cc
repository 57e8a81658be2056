#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/simd.h"
#include "obs/trace_recorder.h"
#include "serve/protocol.h"

namespace perfbench {

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int CpuCount() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int TrainLanes() { return std::max(1, CpuCount() - 1); }

namespace {

/// CPU brand string from CPUID (no file reads), "unknown" elsewhere.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const std::size_t first = model.find_first_not_of(' ');
    const std::size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

}  // namespace

std::string HostFingerprintJson(const std::string& commit, int lanes) {
  const std::string cpu = CpuModel();
  using memo::serve::JsonEscape;
  return "{\"cpu\":\"" + JsonEscape(cpu) +
         "\",\"nproc\":" + std::to_string(CpuCount()) + ",\"simd\":\"" +
         memo::SimdLevelName(memo::RequestedSimdLevel()) +
         "\",\"pool_lanes\":" + std::to_string(lanes) +
         ",\"commit\":\"" + JsonEscape(commit) + "\"}";
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<ProgramSpan> ProgramSpans() {
  // Events come grouped by thread and in emission order within a thread, so
  // one stack per thread pairs each end with its begin.
  std::vector<ProgramSpan> spans;
  std::map<int, std::vector<ProgramSpan>> open;
  for (const memo::obs::TaggedTraceEvent& tagged :
       memo::obs::TraceRecorder::Global().Snapshot()) {
    const memo::obs::TraceEvent& e = tagged.event;
    std::vector<ProgramSpan>& stack = open[tagged.tid];
    if (e.phase == 'B') {
      stack.push_back({e.effective_name(), tagged.tid, e.ts_us, -1.0,
                       e.arg_value});
    } else if (e.phase == 'E' && !stack.empty()) {
      stack.back().end_us = e.ts_us;
      spans.push_back(std::move(stack.back()));
      stack.pop_back();
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const ProgramSpan& a, const ProgramSpan& b) {
              return a.begin_us < b.begin_us;
            });
  return spans;
}

double NestedMs(const std::vector<ProgramSpan>& spans,
                const ProgramSpan& outer, const std::string& name) {
  // Spans are in begin order: scan only those that begin inside `outer`.
  auto it = std::lower_bound(spans.begin(), spans.end(), outer.begin_us,
                             [](const ProgramSpan& span, double us) {
                               return span.begin_us < us;
                             });
  double ms = 0.0;
  for (; it != spans.end() && it->begin_us <= outer.end_us; ++it) {
    if (it->name == name && outer.Contains(*it)) ms += it->ms();
  }
  return ms;
}

void WriteProgramTrace(const std::string& path, const std::string& key,
                       RunResult* result) {
  std::string error;
  if (!memo::obs::TraceRecorder::Global().WriteJson(path, &error)) {
    std::fprintf(stderr, "perfbench: could not write %s: %s\n", path.c_str(),
                 error.c_str());
    return;
  }
  result->Note(key,
               std::to_string(
                   memo::obs::TraceRecorder::Global().event_count()) +
                   " events in " + path);
}

}  // namespace perfbench
