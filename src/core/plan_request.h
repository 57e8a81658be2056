#ifndef MEMO_CORE_PLAN_REQUEST_H_
#define MEMO_CORE_PLAN_REQUEST_H_

#include <cstdint>
#include <string>

#include "common/fingerprint.h"
#include "core/session.h"

namespace memo::core {

/// What a planning query asks for. The three kinds cover every question the
/// session layer answers today: "best feasible strategy by MFU", "this
/// exact strategy", and "longest trainable sequence" (Fig. 12a).
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

/// An immutable, hashable description of one planning/simulation query —
/// the split-out value form of what used to be loose (workload, cluster,
/// SessionOptions) argument tuples. Everything that changes the numeric
/// answer is a field here and feeds the fingerprint; output side channels
/// (the sim timeline path) deliberately are not, so one fingerprint maps to
/// exactly one answer and cached plans can be shared between callers.
///
/// The answer to a PlanRequest is a pure function of its fields: the
/// executors are deterministic simulations and the LP/MIP solvers are
/// deterministic. That purity is what makes the plan cache of `memo_serve`
/// correct — and it is contract-checked by the serve tests, which require a
/// cache hit to be bit-identical to a cold solve.
struct PlanRequest {
  PlanQueryKind kind = PlanQueryKind::kBestStrategy;
  parallel::SystemKind system = parallel::SystemKind::kMemo;
  model::ModelConfig model;
  std::int64_t seq = 0;
  hw::ClusterSpec cluster;

  /// kStrategy only: the explicit parallelism configuration to simulate.
  parallel::ParallelStrategy strategy;

  /// kMaxSeq only: scan step and upper bound.
  std::int64_t seq_step = 0;
  std::int64_t seq_cap = 0;

  // Solver/executor knobs — the answer-affecting subset of SessionOptions.
  hw::Calibration calibration = hw::DefaultCalibration();
  int alpha_steps = 8;
  double forced_alpha = -1.0;
  planner::PlannerOptions planner;
  bool baseline_use_memory_plan = false;

  /// The canonical `key=value;` string the fingerprint hashes: every field
  /// above, doubles as exact bit patterns. Exposed for tests and debugging.
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

  /// Rebuilds the SessionOptions the legacy entry points expect.
  SessionOptions MakeSessionOptions() const;
};

/// Captures the answer-affecting knobs of `session` into a request shell.
/// Callers fill in kind/workload/strategy afterwards (or use the wrappers
/// in session.h that do it for them).
PlanRequest PlanRequestFromSession(parallel::SystemKind system,
                                   const Workload& workload,
                                   const hw::ClusterSpec& cluster,
                                   const SessionOptions& session);

/// The answer to a PlanRequest. `status` is part of the value — an
/// infeasible or OOM outcome is a legitimate, cacheable answer to "does
/// this config train?" — so the struct is returned by value, not through
/// StatusOr.
struct PlanResult {
  Status status = OkStatus();
  PlanQueryKind kind = PlanQueryKind::kBestStrategy;
  /// Valid iff status.ok() and kind != kMaxSeq.
  IterationResult best;
  int strategies_tried = 0;
  int strategies_feasible = 0;
  /// kMaxSeq answer (0 = nothing fits).
  std::int64_t max_seq = 0;
};

/// Answers `request` by routing to the matching session entry point
/// (RunBestStrategy / RunStrategy / MaxSupportedSeqLen). Every legacy call
/// path — memo_cli run/maxseq and the serve subsystem — funnels through
/// here, so a cached answer and a direct call are the same computation by
/// construction.
PlanResult ExecutePlanRequest(const PlanRequest& request);

}  // namespace memo::core

#endif  // MEMO_CORE_PLAN_REQUEST_H_
