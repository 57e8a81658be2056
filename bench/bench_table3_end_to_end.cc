// Regenerates the paper's Table 3: MFU and TGS of DeepSpeed, Megatron-LM
// and MEMO across {7B/8, 13B/16, 30B/32, 65B/64 GPUs} x sequence lengths
// 64K..1408K, with X_oom / X_oohm markers. Each cell auto-tunes the
// parallelism strategy (the paper hand-tunes; Appendix A lists their
// choices) and reports the best feasible configuration.

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"

namespace {

using memo::core::PlanRequest;
using memo::core::PlanResult;
using memo::parallel::SystemKind;

std::string Cell(const PlanResult& r) {
  if (r.status.IsOutOfHostMemory()) return "X_oohm";
  if (!r.status.ok()) return "X_oom";
  return memo::StrFormat("%.2f%%/%.2f", r.best.metrics.mfu * 100.0,
                         r.best.metrics.tgs);
}

/// The best strategy of `system` on `request`'s workload.
PlanResult Best(PlanRequest request, SystemKind system) {
  request.system = system;
  return memo::core::ExecutePlanRequest(request);
}

PlanRequest RowRequest(int gpus, const memo::model::ModelConfig& model) {
  PlanRequest request;
  request.model = model;
  request.cluster = memo::hw::PaperCluster(gpus);
  return request;
}

}  // namespace

int main() {
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
  const std::int64_t seqs_k[] = {64,  128, 256,  384,  512,  640,
                                 768, 896, 1024, 1152, 1280, 1408};

  std::printf("Table 3: MFU / TGS per system (auto-tuned strategies)\n\n");
  for (const Row& row : rows) {
    PlanRequest request = RowRequest(row.gpus, row.model);
    std::printf("== %d GPUs, %s model ==\n", row.gpus,
                row.model.name.c_str());
    memo::TablePrinter table(
        {"seq", "DeepSpeed", "Megatron-LM", "MEMO", "MEMO strategy",
         "alpha"});
    for (std::int64_t sk : seqs_k) {
      request.seq = sk * memo::kSeqK;
      const PlanResult ds = Best(request, SystemKind::kDeepSpeed);
      const PlanResult mega = Best(request, SystemKind::kMegatron);
      const PlanResult ours = Best(request, SystemKind::kMemo);
      table.AddRow({memo::FormatSeqLen(request.seq), Cell(ds), Cell(mega),
                    Cell(ours),
                    ours.status.ok() ? ours.best.strategy.ToString() : "-",
                    ours.status.ok()
                        ? memo::StrFormat("%.3f", ours.best.alpha)
                        : "-"});
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  // Aggregate MFU ratios over cells where the baseline also fits (the
  // paper reports 2.42x vs Megatron-LM and 2.26x vs DeepSpeed on average).
  double ratio_mega = 0.0;
  int n_mega = 0;
  double ratio_ds = 0.0;
  int n_ds = 0;
  for (const Row& row : rows) {
    PlanRequest request = RowRequest(row.gpus, row.model);
    for (std::int64_t sk : seqs_k) {
      request.seq = sk * memo::kSeqK;
      const PlanResult ours = Best(request, SystemKind::kMemo);
      if (!ours.status.ok()) continue;
      const PlanResult mega = Best(request, SystemKind::kMegatron);
      if (mega.status.ok()) {
        ratio_mega += ours.best.metrics.mfu / mega.best.metrics.mfu;
        ++n_mega;
      }
      const PlanResult ds = Best(request, SystemKind::kDeepSpeed);
      if (ds.status.ok()) {
        ratio_ds += ours.best.metrics.mfu / ds.best.metrics.mfu;
        ++n_ds;
      }
    }
  }
  std::printf("Average MFU ratio MEMO / Megatron-LM: %.2fx over %d cells\n",
              ratio_mega / n_mega, n_mega);
  std::printf("Average MFU ratio MEMO / DeepSpeed:   %.2fx over %d cells\n",
              ratio_ds / n_ds, n_ds);
  return 0;
}
