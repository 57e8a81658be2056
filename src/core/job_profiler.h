#ifndef MEMO_CORE_JOB_PROFILER_H_
#define MEMO_CORE_JOB_PROFILER_H_

#include "core/alpha_solver.h"
#include "core/plan_request.h"
#include "core/timings.h"
#include "model/trace_gen.h"

namespace memo::core {

/// Everything the MEMO system derives from one profiling pass (Fig. 10's
/// "job profiler" box): the memory request sequence directed at the
/// allocator, the layer timings and per-layer skeletal layout, the
/// swap-fraction LP over them, and the fraction itself.
///
/// On real hardware the profiler executes one instrumented iteration; in
/// this reproduction the request sequence and timings come from the trace
/// generator and the calibrated cost model, which play the same role:
/// ground truth inputs for the planner and executor.
struct JobProfile {
  model::ModelTrace trace;     // one pipeline stage's allocator requests
  IterationTimings timings;    // layer/classifier/comm seconds, skeletal
  /// The §4.1 LP of one stage (Eq. 1-3 over the host RAM and optional NVMe
  /// tiers): per-GPU skeletal bytes, the calibrated PCIe and disk
  /// bandwidths, and the layer's forward window (compute plus the exposed
  /// TP and context-parallel communication).
  TieredAlphaInputs alpha_inputs;
  /// The LP's solved and quantized swap fraction, or the request's forced
  /// alpha split RAM-first (no bound flag set).
  TieredAlphaResult alpha;
  std::int64_t offload_bytes_per_layer = 0;
};

/// Profiles `request`'s workload under `strategy` (request.kind,
/// request.system and request.strategy are not read): validates the
/// strategy, computes the stage's timings, solves the swap-fraction LP (or
/// checks the forced alpha against RAM plus disk) and generates the
/// MEMO-mode request trace. Fails with kOutOfHostMemory when the swapped
/// bytes deplete both tiers, the X_oohm outcome. RunMemoIteration executes
/// this profile.
StatusOr<JobProfile> ProfileJob(const PlanRequest& request,
                                const parallel::ParallelStrategy& strategy);

/// §4.3.2 fallback: the profiling pass itself runs with the MEMO techniques
/// off, and when its footprint exceeds the device the real system switches
/// the allocator to CUDA Unified Memory. The footprint here is the peak live
/// bytes of a vanilla (full-recompute) trace over at most three of the
/// stage's layers, plus the stage's model state and kDeviceReserveBytes.
/// Returns the page traffic the one-off profiling pass then pays (the
/// overflow paged out and back), or 0 when the vanilla pass fits.
std::int64_t ProfilingMigrationBytes(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy);

}  // namespace memo::core

#endif  // MEMO_CORE_JOB_PROFILER_H_
