#ifndef MEMO_CORE_MEMO_EXECUTOR_H_
#define MEMO_CORE_MEMO_EXECUTOR_H_

#include "core/executor.h"
#include "core/plan_request.h"

namespace memo::core {

/// Simulates one MEMO training iteration (§4) from ProfileJob's profile:
/// plans the transient memory with the bi-level MIP, checks device memory,
/// splits the offloaded bytes RAM-first over the host tiers, and schedules
/// compute/offload/prefetch (and the NVMe spill stream) on their streams
/// with rounding-buffer synchronization (Fig. 11).
/// Returns kOutOfMemory / kOutOfHostMemory exactly like the paper's
/// X_oom / X_oohm. request.kind, request.system and request.strategy are not
/// read: `strategy` is what runs.
StatusOr<IterationResult> RunMemoIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy);

}  // namespace memo::core

#endif  // MEMO_CORE_MEMO_EXECUTOR_H_
