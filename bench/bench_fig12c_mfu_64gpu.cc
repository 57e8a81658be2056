// Regenerates the paper's Fig. 12(c): MFU of the three systems when
// training the 7B model on 64 GPUs with sequence lengths from 1024K to
// 8192K. The paper shows MEMO holding >50% throughout while the baselines
// degrade and then run out of memory.

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"

namespace {

std::string Cell(const memo::core::PlanResult& r) {
  if (r.status.IsOutOfHostMemory()) return "X_oohm";
  if (!r.status.ok()) return "X_oom";
  return memo::StrFormat("%.2f%%", r.best.metrics.mfu * 100.0);
}

/// The best strategy of `system` on `request`'s workload.
memo::core::PlanResult Best(memo::core::PlanRequest request,
                            memo::parallel::SystemKind system) {
  request.system = system;
  return memo::core::ExecutePlanRequest(request);
}

}  // namespace

int main() {
  memo::core::PlanRequest request;
  request.model = memo::model::Gpt7B();
  request.cluster = memo::hw::PaperCluster(64);

  std::printf("Fig 12(c): MFU on 64 GPUs, 7B model, 1024K..8192K\n\n");
  memo::TablePrinter table(
      {"seq", "DeepSpeed", "Megatron-LM", "MEMO", "MEMO strategy", "alpha"});
  for (std::int64_t sk = 1024; sk <= 8192; sk += 1024) {
    request.seq = sk * memo::kSeqK;
    const auto ds = Best(request, memo::parallel::SystemKind::kDeepSpeed);
    const auto mega = Best(request, memo::parallel::SystemKind::kMegatron);
    const auto ours = Best(request, memo::parallel::SystemKind::kMemo);
    table.AddRow({memo::FormatSeqLen(request.seq), Cell(ds), Cell(mega),
                  Cell(ours),
                  ours.status.ok() ? ours.best.strategy.ToString() : "-",
                  ours.status.ok()
                      ? memo::StrFormat("%.3f", ours.best.alpha)
                      : "-"});
  }
  table.Print(std::cout);
  return 0;
}
