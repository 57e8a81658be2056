#ifndef MEMO_CORE_MEMO_EXECUTOR_H_
#define MEMO_CORE_MEMO_EXECUTOR_H_

#include "core/alpha_solver.h"
#include "core/executor.h"
#include "core/timings.h"
#include "planner/bilevel_planner.h"

namespace memo::core {

struct MemoOptions {
  hw::Calibration calibration = hw::DefaultCalibration();
  /// Quantize alpha down to multiples of 1/alpha_steps (0 = continuous).
  int alpha_steps = 8;
  /// Override alpha instead of solving Eq. 1-3 (negative = solve). Used by
  /// the ablations (full swapping = 1.0, full recompute of others = 0.0) and
  /// the convergence sweep.
  double forced_alpha = -1.0;
  planner::PlannerOptions planner;
};

/// The swap-fraction LP of one MEMO pipeline stage (Eq. 1-3 over the host
/// RAM and optional NVMe tiers): per-GPU skeletal bytes, the calibrated
/// PCIe and disk bandwidths, and the layer's forward window (compute plus
/// the exposed TP and context-parallel communication). RunMemoIteration
/// and ProfileJob both solve exactly this problem.
TieredAlphaInputs MemoAlphaInputs(const IterationTimings& timings,
                                  const hw::ClusterSpec& cluster,
                                  const hw::Calibration& calibration);

/// Simulates one MEMO training iteration (§4): solves the swap fraction,
/// plans transient memory with the bi-level MIP, checks device and host
/// memory feasibility, and schedules compute/offload/prefetch on three
/// streams with rounding-buffer synchronization (Fig. 11). Returns
/// kOutOfMemory / kOutOfHostMemory exactly like the paper's X_oom / X_oohm.
StatusOr<IterationResult> RunMemoIteration(
    const Workload& workload, const parallel::ParallelStrategy& strategy,
    const hw::ClusterSpec& cluster, const MemoOptions& options = {});

}  // namespace memo::core

#endif  // MEMO_CORE_MEMO_EXECUTOR_H_
