// Quickstart: reproduce the paper's headline result — training a 7B GPT
// with a 1-million-token sequence on 8 A800 GPUs at >50% MFU — and show
// what MEMO decided along the way (swap fraction, memory plan, schedule).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"
#include "core/report.h"

int main() {
  // 1. Describe the workload: the Table 2 "7B" GPT at 1M tokens.
  const memo::model::ModelConfig model = memo::model::Gpt7B();
  memo::core::PlanRequest request;
  request.model = model;
  request.seq = 1024 * memo::kSeqK;

  // 2. Describe the hardware: one paper-spec node (8x A800-80GB, NVLink,
  //    2 TB host RAM, 32 GB/s PCIe per GPU).
  request.cluster = memo::hw::PaperCluster(8);

  std::printf("Workload: %s model (%.2fB params), sequence %s, %d GPUs\n\n",
              model.name.c_str(), model.num_parameters() / 1e9,
              memo::FormatSeqLen(request.seq).c_str(),
              request.cluster.total_gpus());

  // 3. Let MEMO auto-tune the parallelism strategy and run one simulated
  //    iteration (profiler -> alpha LP -> bi-level memory plan -> 3-stream
  //    schedule). A request asks for the best strategy of MEMO unless its
  //    kind and system say otherwise.
  const memo::core::PlanResult result =
      memo::core::ExecutePlanRequest(request);
  if (!result.status.ok()) {
    std::printf("failed: %s\n", result.status.ToString().c_str());
    return 1;
  }
  const memo::core::IterationResult& it = result.best;

  memo::core::IterationReportTable(it, model).Print(std::cout);

  // 4. Contrast with the baselines on the same workload.
  std::printf("\nBaselines on the same workload:\n");
  for (auto system : {memo::parallel::SystemKind::kMegatron,
                      memo::parallel::SystemKind::kDeepSpeed}) {
    request.system = system;
    const auto r = memo::core::ExecutePlanRequest(request);
    if (r.status.ok()) {
      std::printf("  %-12s MFU %.2f%%  (%s)\n",
                  memo::parallel::SystemKindToString(system),
                  r.best.metrics.mfu * 100.0,
                  r.best.strategy.ToString().c_str());
    } else {
      std::printf("  %-12s %s\n",
                  memo::parallel::SystemKindToString(system),
                  r.status.IsOutOfHostMemory() ? "X_oohm" : "X_oom");
    }
  }
  return 0;
}
