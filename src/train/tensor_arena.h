#ifndef MEMO_TRAIN_TENSOR_ARENA_H_
#define MEMO_TRAIN_TENSOR_ARENA_H_

#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "solver/dsa.h"

namespace memo::train {

/// Step-scoped tensor allocator for the training hot loop: one slab, reset
/// every iteration, with per-tensor offsets planned by the same level-1 DSA
/// solve the bi-level planner uses (§4.2 — the training loop actually runs
/// on a static plan instead of malloc/free).
///
/// Lifecycle:
///  1. kMeasuring — the first step's Tensor allocations are served from the
///     heap while their sizes and alloc/free order are recorded as a
///     model::MemoryRequest trace.
///  2. At the next BeginStep() the trace is solved with solver::SolveDsa
///     (best-fit, certified against the max-live lower bound; exact MIP for
///     tiny instances) and a slab of the planned peak is carved once.
///  3. kPlanned — every later step replays the same allocation sequence
///     (the training loop is deterministic), so the k-th allocation simply
///     returns slab + offset[k]: zero heap traffic. A sequence or size
///     mismatch (e.g. the backend degraded mid-run and the step shape
///     changed) falls back to the heap for the rest of the step, counts a
///     divergence, and re-measures from the next step.
///
/// Thread contract: Allocate runs on the thread that entered the
/// ArenaScope (Tensor construction looks the arena up via a thread_local,
/// so worker/copier threads transparently use the heap instead). NoteFree
/// may run on any thread — a free from a foreign thread (the async offload
/// copier destroying a stashed tensor) is treated as step-lifetime rather
/// than recorded, which only widens the plan, never corrupts it.
class TensorArena {
 public:
  enum class State { kMeasuring, kPlanned };

  TensorArena();
  ~TensorArena();
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Starts a new step: commits the measured plan (second step), resets the
  /// allocation cursor, or abandons a diverged plan and re-measures. Every
  /// arena-backed tensor of the previous step must already be destroyed.
  void BeginStep();

  /// Drops the step in progress, which failed part-way (its tensors already
  /// destroyed): a measuring step's partial trace is never solved into a
  /// plan, and a planned step no longer counts in planned_steps().
  void DiscardStep();

  /// One Tensor-buffer allocation. `from_arena` tells the caller who frees:
  /// true — pass the pointer back via NoteFree; false — the block is plain
  /// heap (std::aligned_alloc) and the caller frees it with std::free.
  struct Allocation {
    void* ptr = nullptr;
    bool from_arena = false;
  };
  Allocation Allocate(std::int64_t bytes);
  void NoteFree(void* ptr);

  State state() const;
  /// Bytes of the carved slab (the planned peak; 0 while measuring).
  std::int64_t capacity_bytes() const;
  /// Peak of the DSA placement backing the current plan (0 until planned).
  std::int64_t planned_peak_bytes() const;
  /// Max observed usage: peak live bytes while measuring, max planned
  /// offset+size touched while planned. On a planned run this equals
  /// planned_peak_bytes (test-enforced).
  std::int64_t high_water_bytes() const;
  /// True when the DSA solve met its lower bound (or the MIP proved it).
  bool plan_proved_optimal() const;
  /// Heap allocations served while a plan was active — the hot loop's "zero per-iteration heap allocations" assertion is
  /// heap_fallback_allocs() == 0.
  std::int64_t heap_fallback_allocs() const;
  std::int64_t plan_divergences() const;
  /// Steps begun on the planned slab, less the discarded ones.
  std::int64_t planned_steps() const;

  /// The calling thread's scoped arena, or null (heap allocation).
  static TensorArena* Current();

 private:
  friend class ArenaScope;

  struct PlannedAlloc {
    std::int64_t offset = 0;
    std::int64_t bytes = 0;  // rounded to the 512 B allocator granularity
  };

  void CommitPlanLocked();
  void AbandonPlanLocked();
  void ResetMeasurementLocked();
  void PublishGaugesLocked();

  mutable std::mutex mu_;
  State state_;

  // Measuring. LiveBlock::id is -1 for blocks left over from an abandoned
  // measuring epoch (their frees must not be recorded into the new trace).
  struct LiveBlock {
    std::int64_t id = 0;
    std::int64_t rounded_bytes = 0;
  };
  std::vector<model::MemoryRequest> events_;
  std::unordered_map<void*, LiveBlock> live_;  // measure-mode heap blocks
  std::int64_t next_id_ = 0;
  std::int64_t live_bytes_ = 0;
  std::thread::id scope_thread_;

  // Planned slab.
  char* slab_ = nullptr;
  std::int64_t capacity_ = 0;
  std::vector<PlannedAlloc> planned_;
  std::int64_t planned_peak_ = 0;
  bool plan_optimal_ = false;
  std::int64_t cursor_ = 0;  // next planned alloc index
  bool diverged_this_step_ = false;

  // Stats.
  std::int64_t high_water_ = 0;
  std::int64_t heap_fallbacks_ = 0;
  std::int64_t divergences_ = 0;
  std::int64_t planned_steps_ = 0;
};

/// Installs `arena` as TensorArena::Current() for this thread for the
/// scope's lifetime (restoring the previous one on exit).
class ArenaScope {
 public:
  explicit ArenaScope(TensorArena* arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  TensorArena* previous_;
};

}  // namespace memo::train

#endif  // MEMO_TRAIN_TENSOR_ARENA_H_
