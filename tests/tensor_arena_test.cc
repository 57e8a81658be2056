// TensorArena lifecycle and invariants: measure -> DSA plan -> replay, the
// zero-heap steady state the trainer hot loop asserts, alignment, and
// divergence recovery.

#include "train/tensor_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "train/trainer.h"

namespace memo::train {
namespace {

// One synthetic "step": a deterministic allocate/free pattern with
// overlapping lifetimes (so the DSA solve has something to pack). Returns
// the pointers handed out, in allocation order.
std::vector<void*> RunStep(TensorArena* arena) {
  std::vector<void*> ptrs;
  auto alloc = [&](std::int64_t bytes) {
    TensorArena::Allocation a = arena->Allocate(bytes);
    EXPECT_NE(a.ptr, nullptr);
    ptrs.push_back(a.ptr);
    return a;
  };
  auto a0 = alloc(1000);
  auto a1 = alloc(4096);
  auto a2 = alloc(513);  // rounds past one 512 B granule
  arena->NoteFree(a1.ptr);  // heap and arena blocks both route through here
  auto a3 = alloc(8192);
  arena->NoteFree(a0.ptr);
  arena->NoteFree(a2.ptr);
  arena->NoteFree(a3.ptr);
  return ptrs;
}

TEST(TensorArenaTest, MeasuresThenPlansThenReplays) {
  TensorArena arena;
  ArenaScope scope(&arena);
  EXPECT_EQ(arena.state(), TensorArena::State::kMeasuring);
  EXPECT_EQ(arena.capacity_bytes(), 0);

  arena.BeginStep();
  RunStep(&arena);  // measuring: served from the heap
  EXPECT_EQ(arena.state(), TensorArena::State::kMeasuring);

  arena.BeginStep();  // commits the plan
  EXPECT_EQ(arena.state(), TensorArena::State::kPlanned);
  EXPECT_GT(arena.planned_peak_bytes(), 0);
  EXPECT_EQ(arena.capacity_bytes() % 64, 0);
  EXPECT_GE(arena.capacity_bytes(), arena.planned_peak_bytes());

  const std::vector<void*> first = RunStep(&arena);
  // A fully replayed step touches every planned slot, so the high-water
  // mark equals the planned peak — the "plan is tight" invariant the
  // trainer exports as arena_high_water_bytes == arena_planned_peak_bytes.
  EXPECT_EQ(arena.high_water_bytes(), arena.planned_peak_bytes());
  EXPECT_EQ(arena.heap_fallback_allocs(), 0);
  EXPECT_EQ(arena.plan_divergences(), 0);
  EXPECT_EQ(arena.planned_steps(), 1);

  // Reset semantics: the next step replays the identical placement.
  arena.BeginStep();
  const std::vector<void*> second = RunStep(&arena);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.planned_steps(), 2);
  EXPECT_EQ(arena.heap_fallback_allocs(), 0);
}

TEST(TensorArenaTest, PlannedPointersAreCacheLineAligned) {
  TensorArena arena;
  ArenaScope scope(&arena);
  arena.BeginStep();
  for (void* p : RunStep(&arena)) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);  // heap pass
  }
  arena.BeginStep();
  for (void* p : RunStep(&arena)) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);  // planned pass
  }
}

TEST(TensorArenaTest, DivergenceFallsBackToHeapAndRemeasures) {
  TensorArena arena;
  ArenaScope scope(&arena);
  arena.BeginStep();
  RunStep(&arena);
  arena.BeginStep();
  ASSERT_EQ(arena.state(), TensorArena::State::kPlanned);

  // Allocate a size the plan has never seen: the arena must not hand out a
  // wrongly-sized planned slot. It serves the heap and flags divergence.
  TensorArena::Allocation odd = arena.Allocate(999999);
  EXPECT_FALSE(odd.from_arena);
  EXPECT_GE(arena.plan_divergences(), 1);
  EXPECT_GE(arena.heap_fallback_allocs(), 1);
  std::free(odd.ptr);  // from_arena == false: plain heap, caller frees

  // The diverged plan is abandoned at the next step boundary; the arena
  // re-measures and re-plans from the new trace.
  arena.BeginStep();
  EXPECT_EQ(arena.state(), TensorArena::State::kMeasuring);
  RunStep(&arena);
  arena.BeginStep();
  EXPECT_EQ(arena.state(), TensorArena::State::kPlanned);
  RunStep(&arena);
  EXPECT_EQ(arena.high_water_bytes(), arena.planned_peak_bytes());
}

TEST(TensorArenaTest, CurrentIsScopedPerThread) {
  EXPECT_EQ(TensorArena::Current(), nullptr);
  TensorArena outer_arena;
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(TensorArena::Current(), &outer_arena);
    TensorArena inner_arena;
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(TensorArena::Current(), &inner_arena);
    }
    EXPECT_EQ(TensorArena::Current(), &outer_arena);
  }
  EXPECT_EQ(TensorArena::Current(), nullptr);
}

TEST(TensorArenaTest, TrainerHotLoopRunsHeapFreeAfterWarmup) {
  // The acceptance assertion for the step-scoped arena: after the first
  // (measuring) iteration, every training step runs entirely out of the
  // planned slab — zero per-iteration heap allocations — and the loss
  // curve is exactly the no-arena one.
  TrainRunOptions options;
  options.model.layers = 4;
  options.model.hidden = 32;
  options.model.heads = 4;
  options.model.ffn = 64;
  options.model.vocab = 64;
  options.model.seq = 32;
  options.iterations = 5;
  options.use_arena = true;
  const TrainRunResult with_arena = RunTraining(options);
  ASSERT_TRUE(with_arena.status.ok());
  EXPECT_GT(with_arena.arena_planned_peak_bytes, 0);
  EXPECT_EQ(with_arena.arena_high_water_bytes,
            with_arena.arena_planned_peak_bytes);
  EXPECT_EQ(with_arena.arena_planned_steps, options.iterations - 1);
  EXPECT_EQ(with_arena.arena_heap_fallback_allocs, 0);
  EXPECT_EQ(with_arena.arena_plan_divergences, 0);

  options.use_arena = false;
  const TrainRunResult without_arena = RunTraining(options);
  ASSERT_TRUE(without_arena.status.ok());
  EXPECT_EQ(without_arena.arena_planned_peak_bytes, 0);
  ASSERT_EQ(with_arena.losses.size(), without_arena.losses.size());
  for (std::size_t i = 0; i < with_arena.losses.size(); ++i) {
    EXPECT_EQ(with_arena.losses[i], without_arena.losses[i])
        << "arena changed numerics at iteration " << i;
  }
}

}  // namespace
}  // namespace memo::train
