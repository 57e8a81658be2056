#ifndef MEMO_CORE_BASELINE_EXECUTORS_H_
#define MEMO_CORE_BASELINE_EXECUTORS_H_

#include "core/executor.h"
#include "core/plan_request.h"

namespace memo::core {

/// Simulates one Megatron-LM (+ TransformerEngine) iteration: TP/SP + CP +
/// PP + ZeRO-1 with optional full activation recomputation, activations
/// managed by the PyTorch-style caching allocator. The allocator is driven
/// with the real request trace, so fragmentation, reorganization stalls and
/// OOM points are emergent, not assumed. With
/// request.baseline_use_memory_plan the activations occupy exactly a
/// bi-level planned arena instead: no fragmentation, no reorganization
/// stalls. request.kind, request.system and request.strategy are not read:
/// `strategy` is what runs.
StatusOr<IterationResult> RunMegatronIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy);

/// Simulates one Megatron-DeepSpeed iteration: Ulysses sequence parallelism
/// + ZeRO-3 + full recomputation, memory managed as RunMegatronIteration
/// does.
StatusOr<IterationResult> RunDeepSpeedIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy);

}  // namespace memo::core

#endif  // MEMO_CORE_BASELINE_EXECUTORS_H_
