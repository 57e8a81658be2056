#ifndef MEMO_PLANNER_BILEVEL_PLANNER_H_
#define MEMO_PLANNER_BILEVEL_PLANNER_H_

#include <cstdint>
#include <unordered_map>

#include "common/status.h"
#include "model/trace_gen.h"
#include "solver/dsa.h"

namespace memo::planner {

/// The static memory plan for one training iteration: a byte address inside
/// a single arena for every dynamically-requested tensor (§4.2). Executing
/// the plan requires no allocator decisions at runtime and therefore incurs
/// zero fragmentation and zero cache-reorganization stalls.
struct MemoryPlan {
  /// Planned arena size = achieved peak of the level-2 solve.
  std::int64_t arena_bytes = 0;
  /// Address for every tensor_id appearing in the planned trace.
  std::unordered_map<std::int64_t, std::int64_t> addresses;
  /// Rounded (512 B) size for every tensor_id (what the arena stores).
  std::unordered_map<std::int64_t, std::int64_t> sizes;

  // Diagnostics.
  std::int64_t layer_fwd_peak = 0;   // level-1 forward sub-plan peak
  std::int64_t layer_bwd_peak = 0;   // level-1 backward sub-plan peak
  std::int64_t lower_bound = 0;      // max-live of the whole trace
  bool level1_fwd_optimal = false;
  bool level1_bwd_optimal = false;
  bool level2_optimal = false;
  int level2_tensors = 0;
};

/// Runs the bi-level planning algorithm of §4.2 on an iteration trace:
///   1. level 1: solve the offline DSA for the tensors local to one
///      representative transformer-layer forward (and backward) segment —
///      all layers share the same request shape, so one sub-plan serves all;
///   2. collapse each layer segment into a single pseudo-request of the
///      sub-plan's peak size;
///   3. level 2: solve the DSA over the collapsed trace (embedding and
///      classifier requests stay fine-grained; cross-segment tensors keep
///      their true lifetimes);
///   4. compose final addresses = pseudo base + level-1 relative address.
/// The returned plan is verified (see VerifyPlan) before being returned.
StatusOr<MemoryPlan> PlanMemory(const model::ModelTrace& trace);

/// Replays `trace` against the plan with overlap checking (PlanAllocator);
/// returns an error if any placement conflicts or exceeds the arena.
Status VerifyPlan(const model::ModelTrace& trace, const MemoryPlan& plan);

}  // namespace memo::planner

#endif  // MEMO_PLANNER_BILEVEL_PLANNER_H_
