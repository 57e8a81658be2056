#ifndef MEMO_CORE_PLAN_REQUEST_H_
#define MEMO_CORE_PLAN_REQUEST_H_

#include <cstdint>
#include <string>

#include "common/fingerprint.h"
#include "core/executor.h"
#include "hw/calibration.h"
#include "hw/gpu_spec.h"
#include "model/model_config.h"
#include "parallel/strategy.h"

namespace memo::core {

/// What a planning query asks for: "best feasible strategy by MFU", "this
/// exact strategy", or "longest trainable sequence" (Fig. 12a).
enum class PlanQueryKind : int {
  kBestStrategy = 0,
  kStrategy = 1,
  kMaxSeq = 2,
};

const char* PlanQueryKindToString(PlanQueryKind kind);
StatusOr<PlanQueryKind> PlanQueryKindFromString(const std::string& name);

/// Longest sequence a request may name (2^40 tokens). One layer's byte
/// counts stay well inside int64 up to here; past ~2^46 they overflow.
inline constexpr std::int64_t kMaxSeqLen = std::int64_t{1} << 40;

/// Largest cluster a request may name. The strategy sweep doubles its
/// degrees in int, which overflows for 2^30 GPUs.
inline constexpr int kMaxGpus = 1 << 20;

/// hw::PaperCluster's size rule (1 to 7 GPUs, or whole 8-GPU nodes) up to
/// kMaxGpus. Validate() applies it to the cluster; the protocol reader
/// applies it to "gpus" first, since PaperCluster asserts it.
Status CheckGpuCount(int gpus);

/// An immutable, hashable description of one planning/simulation query,
/// and the simulator's only input: ExecutePlanRequest answers it, and
/// ProfileJob and the Run*Iteration executors read the workload, cluster
/// and knobs from it. Everything that changes the numeric answer is a field
/// here and feeds the fingerprint, so one fingerprint maps to exactly one
/// answer and cached plans can be shared between callers.
///
/// The answer to a PlanRequest is a pure function of its fields: the
/// executors are deterministic simulations and the LP/MIP solvers are
/// deterministic. That purity is what makes the plan cache of `memo_serve`
/// correct — and it is contract-checked by the serve tests, which require a
/// cache hit to be bit-identical to a cold solve.
struct PlanRequest {
  PlanQueryKind kind = PlanQueryKind::kBestStrategy;
  parallel::SystemKind system = parallel::SystemKind::kMemo;
  /// The workload: one model at one sequence length; each data-parallel
  /// replica processes one sequence per iteration (the paper's long-context
  /// regime).
  model::ModelConfig model;
  std::int64_t seq = 0;
  hw::ClusterSpec cluster;

  /// kStrategy only: the explicit parallelism configuration to simulate.
  parallel::ParallelStrategy strategy;

  /// kMaxSeq only: scan step and upper bound.
  std::int64_t seq_step = 0;
  std::int64_t seq_cap = 0;

  // Solver/executor knobs.
  hw::Calibration calibration = hw::DefaultCalibration();
  /// MEMO: quantize the LP's alpha down to multiples of 1/alpha_steps
  /// (0 = continuous).
  int alpha_steps = 8;
  /// MEMO: this alpha instead of the LP's (negative = solve). The ablations
  /// force full swapping (1.0) or full recompute of the others (0.0).
  double forced_alpha = -1.0;
  /// Baselines: replace the caching allocator with a bi-level static memory
  /// plan while keeping the baseline's execution strategy ("Full
  /// Recomputation + Memory Plan" in the paper's Table 4 ablation).
  bool baseline_use_memory_plan = false;

  /// The canonical `key=value;` string the fingerprint hashes: every field
  /// above, doubles as exact bit patterns, plus the bi-level planner's
  /// solver budgets (constants of solver/dsa.h, kept under their old
  /// request keys so fingerprints and saved cache snapshots stay valid).
  /// Exposed for tests and debugging.
  std::string CanonicalString() const;

  /// The one domain check of a request (seq, cluster size and tiers,
  /// alpha, alpha_steps, maxseq step/cap): a request that passes cannot
  /// reach a MEMO_CHECK, one that fails is never solved or cached. Messages
  /// start with the protocol field at fault ("alpha must be ..."). Whether
  /// the strategy suits the model and cluster is ValidateStrategy's cached
  /// solver answer, not checked here.
  Status Validate() const;

  /// FNV-1a 64 of CanonicalString() — the plan-cache key and the checkpoint
  /// fingerprint's sibling (same hash, common/fingerprint.h).
  std::uint64_t Fingerprint() const;
};

/// The answer to a PlanRequest. `status` is part of the value — an
/// infeasible or OOM outcome is a legitimate, cacheable answer to "does
/// this config train?" — so the struct is returned by value, not through
/// StatusOr.
struct PlanResult {
  /// kBestStrategy is OK when at least one strategy fits; otherwise the
  /// representative failure: kOutOfHostMemory if some strategy was
  /// host-bound (the paper's X_oohm), else kOutOfMemory (X_oom).
  Status status = OkStatus();
  PlanQueryKind kind = PlanQueryKind::kBestStrategy;
  /// Valid iff status.ok() and kind != kMaxSeq.
  IterationResult best;
  int strategies_tried = 0;
  int strategies_feasible = 0;
  /// kMaxSeq answer (0 = nothing fits).
  std::int64_t max_seq = 0;
};

/// Answers `request` with the executor of `request.system`:
///   kBestStrategy  runs every valid strategy and keeps the best feasible
///                  one by MFU (ties keep the earlier strategy; the paper
///                  hand-tunes the Appendix A strategies, this searches the
///                  same space);
///   kStrategy      runs `request.strategy`;
///   kMaxSeq        finds the longest multiple of seq_step up to seq_cap
///                  with a feasible strategy (0 when none), scanning upward
///                  from seq_step and stopping once it is more than four
///                  steps past the best (Fig. 12a).
/// The serve subsystem and `memo_cli run`/`maxseq` funnel through here, so
/// a cached answer and a direct call are the same computation by
/// construction. A request deadline is checked between strategies and
/// between scan steps; a cut-short answer carries kDeadlineExceeded.
PlanResult ExecutePlanRequest(const PlanRequest& request);

}  // namespace memo::core

#endif  // MEMO_CORE_PLAN_REQUEST_H_
