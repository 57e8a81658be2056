#ifndef MEMO_TRAIN_TRAINER_H_
#define MEMO_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "train/mini_gpt.h"

namespace memo::train {

/// Deterministic synthetic language: the next token follows a fixed random
/// permutation of the vocabulary with probability kFidelity, else is
/// uniform noise. A transformer learns the permutation quickly, giving a
/// cleanly decreasing loss curve for the Fig. 12d reproduction.
class SyntheticData {
 public:
  static constexpr double kFidelity = 0.9;

  SyntheticData(int vocab, std::uint64_t seed);

  /// Generates one sequence of `len + 1` tokens and splits it into inputs
  /// [0, len) and next-token targets [1, len].
  void NextSequence(int len, std::vector<int>* tokens,
                    std::vector<int>* targets);

  /// Mid-run stream position for checkpointing: the RNG state plus the
  /// chaining token. Restoring both replays the exact remaining token
  /// stream (the permutation itself is re-derived from the seed).
  std::uint64_t rng_state() const { return rng_.state(); }
  int last_token() const { return last_token_; }
  void RestoreStreamState(std::uint64_t rng_state, int last_token) {
    rng_.set_state(rng_state);
    last_token_ = last_token;
  }

 private:
  std::vector<int> permutation_;
  Rng rng_;
  int last_token_ = 0;
};

struct TrainRunOptions {
  MiniGptConfig model;
  ActivationPolicy policy = ActivationPolicy::kRetainAll;
  double alpha = 1.0;  // used by kTokenWise only
  int iterations = 200;
  /// Sequences per iteration: one, the paper's long-context regime (one
  /// sequence per replica), which core/timings.cc models too.
  static constexpr int batch = 1;
  std::uint64_t seed = 1234;  // weights AND data (shared across runs)
  /// Run stash/restore copies on a dedicated copier thread (token-wise
  /// policy only); bit-identical to the inline path, see ActivationStore.
  bool async_offload = false;
  /// Where the token-wise stash lives: RAM (default, unlimited), disk, or
  /// the tiered RAM-then-disk spill. Restores are bit-identical across
  /// backends, so the loss curve is independent of this choice.
  offload::BackendOptions backend;

  /// Directory for periodic checkpoints (must already exist). Empty
  /// disables checkpointing.
  std::string checkpoint_dir;
  /// Take a checkpoint every N completed iterations (0 = only the implicit
  /// resume-read; no periodic saves).
  int checkpoint_every = 0;
  /// Resume from the newest valid checkpoint in checkpoint_dir (falling
  /// back past corrupted files). The resumed run's loss curve is
  /// bit-identical to the uninterrupted one. Starting fresh when no
  /// checkpoint exists is not an error; a checkpoint whose tensors, step,
  /// losses or data position do not fit this run is, naming the field.
  bool resume = false;
  /// When a stash backend fails permanently mid-run (e.g. the disk tier
  /// dies), re-run the iteration on a plain RAM stash and finish the run
  /// degraded instead of aborting. Set false to surface the fault instead.
  bool allow_degraded = true;
  /// Serve every per-step tensor temporary from a step-scoped TensorArena:
  /// the first iteration is measured, its alloc/free trace is solved with
  /// the level-1 DSA planner, and every later iteration replays the planned
  /// offsets out of one slab — zero per-iteration heap allocations (the
  /// arena_* result fields report this). Numerics are unaffected.
  bool use_arena = true;

  /// OK when every field is in its domain; otherwise INVALID_ARGUMENT whose
  /// message starts with the offending field's name, e.g. "heads must be a
  /// divisor of hidden (got 3)". RunTraining rejects what this rejects.
  Status Validate() const;
};

struct TrainRunResult {
  std::vector<double> losses;  // per-iteration mean training loss
  std::int64_t recomputed_rows = 0;
  std::int64_t peak_stored_bytes = 0;
  /// Stash measurements summed over the completed iterations. The copier
  /// and disk-lane figures (busy and wait seconds, offloaded and prefetched
  /// bytes) stay zero unless async_offload; the per-tier counters and the
  /// staging allocations fill inline too.
  OffloadStats offload_stats;
  /// Wall time of the whole RunTraining call (model init through last step).
  double wall_seconds = 0.0;

  /// OK when the run finished all iterations; otherwise the fault that
  /// stopped it (losses then hold the iterations that did complete).
  Status status;
  /// True when the run lost its configured backend mid-way and finished on
  /// the RAM-only fallback (losses are still bit-identical — the stash
  /// round trip is exact on every backend).
  bool degraded = false;
  /// Step the run resumed from, or -1 for a fresh start.
  std::int64_t resumed_from_step = -1;
  /// Periodic checkpoints written during this call.
  int checkpoints_written = 0;

  /// Step-scoped arena telemetry (all zero when use_arena is false).
  /// Peak of the DSA placement the steady-state steps run on.
  std::int64_t arena_planned_peak_bytes = 0;
  /// Max planned offset+size actually touched; equals the planned peak on
  /// a healthy run (every planned slot is exercised each step).
  std::int64_t arena_high_water_bytes = 0;
  /// Iterations that ran entirely out of the planned slab.
  std::int64_t arena_planned_steps = 0;
  /// Heap allocations that leaked through while a plan was active — the
  /// hot loop's zero-allocation property is this being 0.
  std::int64_t arena_heap_fallback_allocs = 0;
  std::int64_t arena_plan_divergences = 0;
  /// True when the arena's DSA solve was certified optimal.
  bool arena_plan_proved_optimal = false;
};

/// Trains the mini-GPT for `options.iterations` steps. Runs with the same
/// seed but different activation policies / alphas see exactly the same
/// weights and data stream, so their loss curves are comparable point by
/// point — and, because token-wise recomputation is bit-exact, identical.
/// Options that fail Validate() come back as result.status before any
/// model is built.
TrainRunResult RunTraining(const TrainRunOptions& options);

}  // namespace memo::train

#endif  // MEMO_TRAIN_TRAINER_H_
