// Regenerates the paper's Appendix A (Tables 5, 6 and 7): the parallelism
// strategy each system ends up using at every (model, cluster, sequence)
// cell. The paper tunes these by hand; here the auto-tuner searches the
// same space and reports its choice, including MEMO's solved swap fraction
// alpha (Table 7's bottom rows).

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"

namespace {

using memo::parallel::SystemKind;

void PrintSystem(SystemKind system) {
  struct Row {
    int gpus;
    memo::model::ModelConfig model;
  };
  const Row rows[] = {
      {8, memo::model::Gpt7B()},
      {16, memo::model::Gpt13B()},
      {32, memo::model::Gpt30B()},
      {64, memo::model::Gpt65B()},
  };
  std::printf("== %s (auto-tuned counterpart of the paper's %s) ==\n",
              memo::parallel::SystemKindToString(system),
              system == SystemKind::kDeepSpeed  ? "Table 5"
              : system == SystemKind::kMegatron ? "Table 6"
                                                : "Table 7");
  for (const Row& row : rows) {
    memo::core::PlanRequest request;
    request.system = system;
    request.model = row.model;
    request.cluster = memo::hw::PaperCluster(row.gpus);
    memo::TablePrinter table({"seq", "strategy", "alpha", "MFU"});
    for (std::int64_t sk : {64, 128, 256, 512, 768, 1024, 1408}) {
      request.seq = sk * memo::kSeqK;
      const memo::core::PlanResult r = memo::core::ExecutePlanRequest(request);
      if (r.status.ok()) {
        table.AddRow({memo::FormatSeqLen(request.seq),
                      r.best.strategy.ToString(),
                      system == SystemKind::kMemo
                          ? memo::StrFormat("%.3f", r.best.alpha)
                          : "-",
                      memo::StrFormat("%.2f%%", r.best.metrics.mfu * 100)});
      } else {
        table.AddRow({memo::FormatSeqLen(request.seq),
                      r.status.IsOutOfHostMemory() ? "X_oohm" : "X_oom", "-",
                      "-"});
      }
    }
    std::printf("%d GPUs, %s:\n", row.gpus, row.model.name.c_str());
    table.Print(std::cout);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  PrintSystem(SystemKind::kDeepSpeed);
  PrintSystem(SystemKind::kMegatron);
  PrintSystem(SystemKind::kMemo);
  return 0;
}
