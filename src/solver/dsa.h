#ifndef MEMO_SOLVER_DSA_H_
#define MEMO_SOLVER_DSA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "model/trace_gen.h"
#include "solver/mip.h"

namespace memo::solver {

/// One tensor of an offline Dynamic Storage Allocation instance: a size and
/// a lifetime interval [start, end) in request-sequence steps.
struct DsaTensor {
  std::int64_t id = 0;
  std::int64_t size = 0;
  int start = 0;
  int end = 0;

  bool Overlaps(const DsaTensor& other) const {
    return start < other.end && other.start < end;
  }
};

/// An offline DSA problem (§4.2): place every tensor at a byte address so
/// that simultaneously-live tensors never overlap, minimizing the peak
/// address. This is the paper's first- and second-level planning problem.
struct DsaInstance {
  std::vector<DsaTensor> tensors;
  /// Device capacity (the paper's M_cap); defaults to "unbounded".
  std::int64_t capacity = std::int64_t{1} << 62;

  /// Builds an instance from a request trace. Tensor lifetimes come from
  /// malloc/free positions; sizes are rounded up to 512 B (allocator
  /// granularity). When `allow_unmatched` is true, frees without a malloc in
  /// the window are ignored and mallocs without a free extend to the end of
  /// the window (used when slicing one segment out of a full trace);
  /// otherwise unmatched requests are an error.
  static StatusOr<DsaInstance> FromRequests(
      const std::vector<model::MemoryRequest>& requests,
      bool allow_unmatched = false);

  /// The max-over-time of concurrently-live bytes: a lower bound on the
  /// peak of ANY valid placement.
  std::int64_t MaxLiveLowerBound() const;

  /// All pairs of tensors with overlapping lifetimes (the E of the MIP).
  std::vector<std::pair<int, int>> OverlapPairs() const;
};

/// A placement for every tensor plus the achieved peak.
struct DsaAssignment {
  std::unordered_map<std::int64_t, std::int64_t> address;  // tensor id -> byte
  std::int64_t peak = 0;
  std::int64_t lower_bound = 0;
  /// True when `peak == lower_bound` or the MIP proved optimality.
  bool proved_optimal = false;
};

/// Checks that `assignment` places every tensor, respects the capacity, and
/// never overlaps two simultaneously-live tensors; recomputes the peak.
Status ValidateDsaAssignment(const DsaInstance& instance,
                             const DsaAssignment& assignment);

/// Address-ordered best-fit: processes mallocs in trace order, placing each
/// tensor into the smallest adequate free gap (lowest address on ties).
/// Fast (O(n^2) worst case) and frequently optimal on layer traces.
DsaAssignment SolveDsaBestFit(const DsaInstance& instance);

/// First-fit decreasing by size: places tensors largest-first, each at the
/// lowest address that avoids every already-placed, lifetime-overlapping
/// tensor. The standard offline-DSA heuristic (Sekiyama et al.); often
/// tighter than event-order best-fit on traces with large long-lived
/// tensors.
DsaAssignment SolveDsaFirstFitDecreasing(const DsaInstance& instance);

/// Exact solve via the paper's MIP formulation (binary z_ij per overlapping
/// pair, big-M ordering constraints) under branch and bound. The MIP decides
/// the pair orientations; final integer addresses are recovered by a
/// longest-path pass over the orientation DAG, so results are exact in
/// int64 bytes despite the scaled floating-point LP.
/// Fails with kInfeasible when no placement fits the capacity.
StatusOr<DsaAssignment> SolveDsaExact(const DsaInstance& instance,
                                      const MipOptions& options = {});

/// SolveDsa runs the exact MIP when neither heuristic is provably optimal
/// and the instance has at most kExactTensorLimit tensors...
inline constexpr int kExactTensorLimit = 12;
/// ...and at most kExactPairLimit overlapping pairs (each pair is one
/// binary variable; branch-and-bound cost grows exponentially in this
/// count)...
inline constexpr int kExactPairLimit = 40;
/// ...under this branch-and-bound budget.
inline constexpr MipOptions kExactMipBudget{.max_nodes = 2000,
                                            .absolute_gap = 1e-6};

/// The production entry point (used by the bi-level planner): best-fit
/// first; if its peak meets the max-live lower bound the result is certified
/// optimal. Otherwise, small instances go through the exact MIP and the
/// better of the two placements wins.
DsaAssignment SolveDsa(const DsaInstance& instance);

}  // namespace memo::solver

#endif  // MEMO_SOLVER_DSA_H_
