// Strategy explorer: the scenario from the paper's introduction — you have
// a cluster and a model, and must choose parallelism degrees and a memory
// policy before burning GPU-hours. This example enumerates every valid
// configuration for a workload, simulates each, and prints the ranked
// outcome (including why infeasible ones fail).
//
// Usage: strategy_explorer [model] [seq_k] [gpus]
//   model: 7B | 13B | 30B | 65B   (default 13B)
//   seq_k: sequence length in K tokens (default 512)
//   gpus:  8 | 16 | 32 | 64       (default 16)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/memo_executor.h"
#include "core/plan_request.h"

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "13B";
  const std::int64_t seq =
      (argc > 2 ? std::atoll(argv[2]) : 512) * memo::kSeqK;
  const int gpus = argc > 3 ? std::atoi(argv[3]) : 16;

  const auto model_or = memo::model::ModelByName(model_name);
  if (!model_or.ok()) {
    std::printf("unknown model %s\n", model_name.c_str());
    return 1;
  }
  memo::core::PlanRequest request;
  request.model = *model_or;
  request.seq = seq;
  request.cluster = memo::hw::PaperCluster(gpus);

  std::printf("Exploring MEMO strategies: %s model, seq %s, %d GPUs\n\n",
              model_name.c_str(), memo::FormatSeqLen(seq).c_str(), gpus);

  struct Entry {
    memo::parallel::ParallelStrategy strategy;
    memo::StatusOr<memo::core::IterationResult> result;
  };
  std::vector<Entry> entries;
  for (const auto& s : memo::parallel::EnumerateStrategies(
           memo::parallel::SystemKind::kMemo, request.model, request.cluster,
           request.seq)) {
    entries.push_back({s, memo::core::RunMemoIteration(request, s)});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     const double ma =
                         a.result.ok() ? a.result->metrics.mfu : -1.0;
                     const double mb =
                         b.result.ok() ? b.result->metrics.mfu : -1.0;
                     return ma > mb;
                   });

  memo::TablePrinter table({"rank", "strategy", "MFU", "alpha",
                            "peak device", "host offload", "outcome"});
  int rank = 0;
  for (const Entry& e : entries) {
    ++rank;
    if (e.result.ok()) {
      table.AddRow({std::to_string(rank), e.strategy.ToString(),
                    memo::StrFormat("%.2f%%", e.result->metrics.mfu * 100.0),
                    memo::StrFormat("%.3f", e.result->alpha),
                    memo::FormatBytes(e.result->peak_device_bytes),
                    memo::FormatBytes(e.result->host_offload_bytes), "ok"});
    } else {
      table.AddRow({std::to_string(rank), e.strategy.ToString(), "-", "-",
                    "-", "-",
                    e.result.status().IsOutOfHostMemory() ? "X_oohm"
                                                          : "X_oom"});
    }
  }
  table.Print(std::cout);

  // Also show how the baselines would fare with their own best strategy.
  std::printf("\nBaselines (auto-tuned):\n");
  for (auto system : {memo::parallel::SystemKind::kMegatron,
                      memo::parallel::SystemKind::kDeepSpeed}) {
    request.system = system;
    const auto r = memo::core::ExecutePlanRequest(request);
    std::printf("  %-12s %s\n", memo::parallel::SystemKindToString(system),
                r.status.ok()
                    ? memo::StrFormat("MFU %.2f%% with %s",
                                      r.best.metrics.mfu * 100.0,
                                      r.best.strategy.ToString().c_str())
                          .c_str()
                    : r.status.ToString().c_str());
  }
  return 0;
}
