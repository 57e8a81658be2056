#ifndef MEMO_CORE_JOB_PROFILER_H_
#define MEMO_CORE_JOB_PROFILER_H_

#include "core/alpha_solver.h"
#include "core/executor.h"
#include "core/timings.h"
#include "model/trace_gen.h"

namespace memo::core {

/// Everything the MEMO system derives from one profiling pass (Fig. 10's
/// "job profiler" box): the memory request sequence directed at the
/// allocator, the per-layer skeletal layout, the layer timings needed by the
/// swap-fraction LP, and the solved fraction itself.
///
/// On real hardware the profiler executes one instrumented iteration
/// (falling back to CUDA unified memory when even a single layer does not
/// fit, §4.3.2); in this reproduction the request sequence and timings come
/// from the trace generator and the calibrated cost model, which play the
/// same role: ground truth inputs for the planner and executor.
struct JobProfile {
  model::ModelTrace trace;           // allocator request sequence
  model::SkeletalLayout skeletal;    // per-layer, per-GPU byte layout
  IterationTimings timings;          // layer/classifier/comm seconds
  TieredAlphaResult alpha;           // solved, quantized swap fraction
  std::int64_t offload_bytes_per_layer = 0;

  /// §4.3.2 fallback: the profiling pass itself runs with the MEMO
  /// techniques off, so at extreme lengths it would OOM; the real system
  /// switches the allocator to CUDA Unified Memory. True when this workload
  /// needs that fallback (the vanilla profiling footprint exceeds the
  /// device), along with the page traffic the one-off profiling pass pays.
  bool profiling_needs_unified_memory = false;
  std::int64_t profiling_migration_bytes = 0;
};

struct JobProfilerOptions {
  hw::Calibration calibration = hw::DefaultCalibration();
  /// Quantize alpha down to multiples of 1/alpha_steps (0 = continuous).
  int alpha_steps = 8;
};

/// Profiles `workload` under `strategy`: generates the MEMO-mode request
/// trace for one pipeline stage, measures (via the cost model) the layer
/// forward time, and solves the swap-fraction LP over the host RAM and NVMe
/// tiers exactly as RunMemoIteration does (MemoAlphaInputs). Fails with
/// kOutOfHostMemory when even the always-offloaded tensors deplete both
/// tiers, mirroring the X_oohm outcome.
StatusOr<JobProfile> ProfileJob(const Workload& workload,
                                const parallel::ParallelStrategy& strategy,
                                const hw::ClusterSpec& cluster,
                                const JobProfilerOptions& options = {});

}  // namespace memo::core

#endif  // MEMO_CORE_JOB_PROFILER_H_
