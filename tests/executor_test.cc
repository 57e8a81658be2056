#include <gtest/gtest.h>

#include "core/baseline_executors.h"
#include "core/memo_executor.h"
#include "common/units.h"
#include "plan_request_testing.h"

namespace memo::core {
namespace {

using testplan::Best;
using testplan::MaxSeq;

const hw::ClusterSpec kCluster8 = hw::PaperCluster(8);

PlanRequest Job7B(std::int64_t seq) {
  return testplan::Request(model::Gpt7B(), seq, kCluster8);
}

parallel::ParallelStrategy MemoTp4Cp2() {
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  return s;
}

TEST(MemoExecutorTest, PaperHeadline7B1MOn8Gpus) {
  // Abstract: 7B, 1M tokens, 8 A800s, MFU ≈ 52.30%.
  auto r = RunMemoIteration(Job7B(1024 * kSeqK), MemoTp4Cp2());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->metrics.mfu, 0.48);
  EXPECT_LT(r->metrics.mfu, 0.57);
  EXPECT_LE(r->peak_device_bytes, kCluster8.node.gpu.memory_bytes);
  EXPECT_EQ(r->reorg_events, 0);  // static plan: no reorganizations
}

TEST(MemoExecutorTest, AlphaDropsAsSequencesGrow) {
  // Table 7 pattern: alpha = 1 at moderate lengths (full overlap possible),
  // decreasing toward 0 as host memory tightens.
  auto at = [&](std::int64_t seq) {
    auto r = RunMemoIteration(Job7B(seq), MemoTp4Cp2());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->alpha : -1.0;
  };
  const double a256 = at(256 * kSeqK);
  const double a1024 = at(1024 * kSeqK);
  EXPECT_DOUBLE_EQ(a256, 1.0);
  EXPECT_LT(a1024, a256);
}

TEST(MemoExecutorTest, ShortSequencesGetSmallAlpha) {
  // Fig 1b: below the offload/compute crossover full offload cannot
  // overlap, so the solver backs off. (Our calibrated crossover sits lower
  // than the paper's 192K — see EXPERIMENTS.md — so probe well below it.)
  auto r = RunMemoIteration(Job7B(16 * kSeqK), MemoTp4Cp2());
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->alpha, 1.0);
}

TEST(MemoExecutorTest, ForcedAlphaIsRespected) {
  PlanRequest request = Job7B(256 * kSeqK);
  request.forced_alpha = 0.5;
  auto r = RunMemoIteration(request, MemoTp4Cp2());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->alpha, 0.5);
}

TEST(MemoExecutorTest, FullSwappingDepletesHostAtLongSequences) {
  // Table 4: "Full Swapping + Memory Plan" hits X_oohm beyond 256K.
  PlanRequest request = Job7B(768 * kSeqK);
  request.forced_alpha = 1.0;
  auto r = RunMemoIteration(request, MemoTp4Cp2());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfHostMemory());
}

TEST(MemoExecutorTest, OutOfMemoryAtExtremeLength) {
  auto r = RunMemoIteration(Job7B(2048 * kSeqK), MemoTp4Cp2());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfMemory());
}

TEST(MemoExecutorTest, SwapStallsOnlyAtShortSequences) {
  // Long sequences fully hide the PCIe traffic (O(s^2) compute vs O(s)
  // transfer); short ones cannot.
  auto fast = RunMemoIteration(Job7B(512 * kSeqK), MemoTp4Cp2());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(fast->swap_stall_seconds, 0.0, 1e-9);

  PlanRequest force_full_swap = Job7B(16 * kSeqK);
  force_full_swap.forced_alpha = 1.0;
  auto slow = RunMemoIteration(force_full_swap, MemoTp4Cp2());
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow->swap_stall_seconds, 0.0);
}

TEST(MegatronExecutorTest, RecomputePenaltyShowsInMfu) {
  parallel::ParallelStrategy s = MemoTp4Cp2();
  s.full_recompute = true;
  auto r = RunMegatronIteration(Job7B(256 * kSeqK), s);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->recompute_seconds, 0.0);
  // Full recompute costs roughly a quarter of the 3-pass FLOP budget.
  auto memo = RunMemoIteration(Job7B(256 * kSeqK), MemoTp4Cp2());
  ASSERT_TRUE(memo.ok());
  EXPECT_GT(memo->metrics.mfu, r->metrics.mfu * 1.1);
}

TEST(MegatronExecutorTest, OomsBeyondSupportedLength) {
  parallel::ParallelStrategy s = MemoTp4Cp2();
  s.full_recompute = true;
  auto r = RunMegatronIteration(Job7B(1152 * kSeqK), s);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfMemory());
  // The failure is a genuine fragmentation OOM: the caching allocator has
  // reserved nearly the whole device yet cannot serve one large request.
  EXPECT_NE(r.status().message().find("reserved"), std::string::npos);
}

TEST(DeepSpeedExecutorTest, UlyssesRunsAndIsSlowerThanMemo) {
  parallel::ParallelStrategy s;
  s.ulysses_sp = 8;
  s.zero_stage = 3;
  s.full_recompute = true;
  auto ds = RunDeepSpeedIteration(Job7B(256 * kSeqK), s);
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto memo = RunMemoIteration(Job7B(256 * kSeqK), MemoTp4Cp2());
  ASSERT_TRUE(memo.ok());
  EXPECT_GT(memo->metrics.mfu, ds->metrics.mfu);
}

TEST(MemoExecutorTest, GroupedQueryAttentionModelRuns) {
  // The GQA extension: smaller K/V skeletal tensors mean less to offload,
  // so at equal shapes MEMO offloads fewer bytes per layer than for MHA.
  auto r = RunMemoIteration(
      testplan::Request(model::Llama8BGqa(), 512 * kSeqK, kCluster8),
      MemoTp4Cp2());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->metrics.mfu, 0.45);

  model::ModelConfig mha = model::Llama8BGqa();
  mha.num_kv_heads = 0;
  mha.name = "8B-MHA";
  auto r_mha = RunMemoIteration(
      testplan::Request(mha, 512 * kSeqK, kCluster8), MemoTp4Cp2());
  ASSERT_TRUE(r_mha.ok());
  EXPECT_LT(r->host_offload_bytes, r_mha->host_offload_bytes);
}

// ExecutePlanRequest's strategy sweep and maxseq scan.
TEST(SessionTest, BestStrategySearchFindsFeasibleConfigs) {
  const PlanResult r = Best(parallel::SystemKind::kMemo, model::Gpt7B(),
                            512 * kSeqK, kCluster8);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.strategies_tried, 3);
  EXPECT_GE(r.strategies_feasible, 1);
  EXPECT_GT(r.best.metrics.mfu, 0.45);
}

TEST(SessionTest, SystemsRankMemoMegatronDeepSpeed) {
  // Table 3 ordering at a mid-range length on 8 GPUs.
  const std::int64_t seq = 256 * kSeqK;
  const auto memo =
      Best(parallel::SystemKind::kMemo, model::Gpt7B(), seq, kCluster8);
  const auto mega =
      Best(parallel::SystemKind::kMegatron, model::Gpt7B(), seq, kCluster8);
  const auto ds =
      Best(parallel::SystemKind::kDeepSpeed, model::Gpt7B(), seq, kCluster8);
  ASSERT_TRUE(memo.status.ok());
  ASSERT_TRUE(mega.status.ok());
  ASSERT_TRUE(ds.status.ok());
  EXPECT_GT(memo.best.metrics.mfu, mega.best.metrics.mfu);
  EXPECT_GE(mega.best.metrics.mfu, ds.best.metrics.mfu * 0.95);
}

TEST(SessionTest, MaxSeqLenOrderingMatchesFig12a) {
  const auto m = model::Gpt7B();
  const std::int64_t step = 128 * kSeqK;
  const std::int64_t cap = 1536 * kSeqK;
  const auto memo =
      MaxSeq(parallel::SystemKind::kMemo, m, kCluster8, step, cap);
  const auto mega =
      MaxSeq(parallel::SystemKind::kMegatron, m, kCluster8, step, cap);
  const auto ds =
      MaxSeq(parallel::SystemKind::kDeepSpeed, m, kCluster8, step, cap);
  EXPECT_GT(memo, mega);
  EXPECT_GT(mega, ds);
  EXPECT_GE(memo, 1024 * kSeqK);  // the headline capability
}

TEST(SessionTest, MemoScalesLinearlyWithGpus) {
  // Fig 12a: max sequence doubles with the GPU count.
  const auto m = model::Gpt7B();
  const std::int64_t step = 256 * kSeqK;
  const auto max8 = MaxSeq(parallel::SystemKind::kMemo, m,
                           hw::PaperCluster(8), step, 2048 * kSeqK);
  const auto max16 = MaxSeq(parallel::SystemKind::kMemo, m,
                            hw::PaperCluster(16), step, 4096 * kSeqK);
  EXPECT_GE(max16, max8 * 3 / 2);
}

}  // namespace
}  // namespace memo::core
