// What-if study motivated by the paper's §2.2 observation: GPU compute has
// grown ~100x across generations while CPU-GPU bandwidth grew only ~4x, so
// frameworks abandoned swapping. MEMO's bet is that long-context compute is
// O(s^2) while activations are O(s), which keeps swapping viable — but the
// crossover point moves with the hardware generation.
//
// This example re-runs the headline analysis on a hypothetical H100 node
// (3.2x compute, 2x PCIe vs A800) and reports how the offload/compute
// crossover, the solved alpha, and the end-to-end MFU shift.

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/job_profiler.h"
#include "core/plan_request.h"

namespace {

memo::hw::ClusterSpec H100Cluster() {
  memo::hw::NodeSpec node;
  node.gpu = memo::hw::H100();
  node.nvlink_bandwidth = 900.0 * memo::kGBps;  // NVLink 4
  node.ib_bandwidth = 400.0 * memo::kGBps;      // NDR per node
  node.host_memory_bytes = 2 * memo::kTiB;
  return memo::hw::ClusterSpec{node, 1};
}

}  // namespace

int main() {
  memo::core::PlanRequest a800;
  a800.model = memo::model::Gpt7B();
  a800.cluster = memo::hw::PaperCluster(8);
  memo::core::PlanRequest h100 = a800;
  h100.cluster = H100Cluster();

  memo::parallel::ParallelStrategy strategy;
  strategy.tp = 8;

  std::printf(
      "alpha and overlap across hardware generations, 7B, TP=8, 8 GPUs\n\n");
  memo::TablePrinter table({"seq", "A800 alpha", "A800 offload/fwd",
                            "H100 alpha", "H100 offload/fwd"});
  for (std::int64_t sk : {64, 128, 256, 512, 1024}) {
    a800.seq = h100.seq = sk * memo::kSeqK;
    const auto pa = memo::core::ProfileJob(a800, strategy);
    const auto ph = memo::core::ProfileJob(h100, strategy);
    auto ratio = [](const memo::core::JobProfile& p) {
      const double fwd =
          p.timings.layer.fwd_compute + p.timings.layer.fwd_comm;
      return p.timings.offload_layer_full / fwd;
    };
    table.AddRow({memo::FormatSeqLen(a800.seq),
                  pa.ok() ? memo::StrFormat("%.3f", pa->alpha.alpha) : "-",
                  pa.ok() ? memo::StrFormat("%.2f", ratio(*pa)) : "-",
                  ph.ok() ? memo::StrFormat("%.3f", ph->alpha.alpha) : "-",
                  ph.ok() ? memo::StrFormat("%.2f", ratio(*ph)) : "-"});
  }
  table.Print(std::cout);
  std::printf(
      "\n(offload/fwd > 1 means a full-skeletal offload cannot hide under\n"
      "one layer's forward pass; the solver lowers alpha accordingly.)\n\n");

  std::printf("End-to-end MFU on both generations (auto-tuned):\n");
  memo::TablePrinter mfu({"seq", "A800 MFU", "A800 alpha", "H100 MFU",
                          "H100 alpha"});
  for (std::int64_t sk : {256, 512, 1024}) {
    a800.seq = h100.seq = sk * memo::kSeqK;
    const auto ra = memo::core::ExecutePlanRequest(a800);
    const auto rh = memo::core::ExecutePlanRequest(h100);
    mfu.AddRow(
        {memo::FormatSeqLen(a800.seq),
         ra.status.ok() ? memo::StrFormat("%.2f%%", ra.best.metrics.mfu * 100)
                        : "X",
         ra.status.ok() ? memo::StrFormat("%.3f", ra.best.alpha) : "-",
         rh.status.ok() ? memo::StrFormat("%.2f%%", rh.best.metrics.mfu * 100)
                        : "X",
         rh.status.ok() ? memo::StrFormat("%.3f", rh.best.alpha) : "-"});
  }
  mfu.Print(std::cout);
  std::printf(
      "\nTakeaway: on H100 the compute-per-byte budget shrinks ~40%%, the\n"
      "overlap crossover moves to longer sequences, and the solver swaps a\n"
      "smaller fraction — exactly the §2.2 trend, handled automatically by\n"
      "the alpha LP instead of a hand-picked recompute policy.\n");
  return 0;
}
