#include <gtest/gtest.h>

#include "common/units.h"
#include "parallel/memory_model.h"
#include "parallel/strategy.h"

namespace memo::parallel {
namespace {

TEST(StrategyTest, WorldSizeAndSeqLocal) {
  ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  s.dp = 2;
  EXPECT_EQ(s.world_size(), 16);
  EXPECT_EQ(s.SeqLocal(256 * kSeqK), 128 * kSeqK);
  s.ulysses_sp = 4;
  EXPECT_EQ(s.SeqLocal(256 * kSeqK), 32 * kSeqK);
}

TEST(StrategyTest, ValidationAcceptsPaperConfigs) {
  const auto cluster = hw::PaperCluster(8);
  const auto m = model::Gpt7B();
  // Paper Table 7, 7B @ 256K: TP=4 CP=2 DP=1.
  ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  s.dp = 1;
  EXPECT_TRUE(ValidateStrategy(SystemKind::kMemo, s, m, cluster, 256 * kSeqK)
                  .ok());
}

TEST(StrategyTest, ValidationRejectsBadShapes) {
  const auto cluster = hw::PaperCluster(8);
  const auto m = model::Gpt7B();
  ParallelStrategy s;
  s.tp = 4;  // world size 4 != 8
  EXPECT_FALSE(
      ValidateStrategy(SystemKind::kMemo, s, m, cluster, 64 * kSeqK).ok());
  s.tp = 16;  // exceeds node size even if world matched
  s.dp = 1;
  EXPECT_FALSE(
      ValidateStrategy(SystemKind::kMemo, s, m, hw::PaperCluster(16), 64 * kSeqK)
          .ok());

  ParallelStrategy ulysses;
  ulysses.ulysses_sp = 8;
  ulysses.zero_stage = 7;  // ZeRO has stages 0 to 3
  EXPECT_FALSE(
      ValidateStrategy(SystemKind::kDeepSpeed, ulysses, m, cluster, 64 * kSeqK)
          .ok());

  // Degrees whose product overflows int are a wrong world size, not UB.
  ParallelStrategy huge;
  huge.tp = huge.cp = huge.pp = 1 << 16;
  const Status status =
      ValidateStrategy(SystemKind::kMemo, huge, m, cluster, 64 * kSeqK);
  EXPECT_NE(status.message().find("strategy uses at least 4294967296 GPUs"),
            std::string::npos)
      << status.ToString();
}

TEST(StrategyTest, UlyssesMustDivideHeads) {
  // §5.2: the 30B model has 56 heads, so Ulysses SP is capped at 8 on
  // 32 GPUs (56 % 16 != 0) — the reason DeepSpeed supports only short
  // sequences there.
  const auto m30 = model::Gpt30B();
  const auto cluster = hw::PaperCluster(32);
  ParallelStrategy s;
  s.ulysses_sp = 16;
  s.dp = 2;
  s.zero_stage = 3;
  s.full_recompute = true;
  EXPECT_FALSE(
      ValidateStrategy(SystemKind::kDeepSpeed, s, m30, cluster, 64 * kSeqK)
          .ok());
  s.ulysses_sp = 8;
  s.dp = 4;
  EXPECT_TRUE(
      ValidateStrategy(SystemKind::kDeepSpeed, s, m30, cluster, 64 * kSeqK)
          .ok());
}

TEST(StrategyTest, EnumerationRespectsSystemShapes) {
  const auto cluster = hw::PaperCluster(8);
  const auto m = model::Gpt7B();
  for (const auto& s :
       EnumerateStrategies(SystemKind::kDeepSpeed, m, cluster, 256 * kSeqK)) {
    EXPECT_EQ(s.tp, 1);
    EXPECT_EQ(s.cp, 1);
    EXPECT_EQ(s.zero_stage, 3);
    EXPECT_TRUE(s.full_recompute);
    EXPECT_EQ(s.world_size(), 8);
  }
  for (const auto& s :
       EnumerateStrategies(SystemKind::kMegatron, m, cluster, 256 * kSeqK)) {
    EXPECT_EQ(s.ulysses_sp, 1);
    EXPECT_TRUE(s.full_recompute);  // Megatron long-context recipe
    EXPECT_EQ(s.world_size(), 8);
  }
  for (const auto& s :
       EnumerateStrategies(SystemKind::kMemo, m, cluster, 256 * kSeqK)) {
    EXPECT_FALSE(s.full_recompute);  // token-wise machinery instead
  }
  EXPECT_FALSE(EnumerateStrategies(SystemKind::kMemo, m, cluster, 256 * kSeqK)
                   .empty());
}

TEST(StrategyTest, Ulysses7BCapsAt32OnLargeClusters) {
  // Fig 12a: DeepSpeed's max SP for the 7B model (32 heads) is 32, so 32
  // and 64 GPUs support the same max sequence length.
  const auto m = model::Gpt7B();
  int max_sp_64 = 0;
  for (const auto& s : EnumerateStrategies(SystemKind::kDeepSpeed, m,
                                           hw::PaperCluster(64), 1024 * kSeqK)) {
    max_sp_64 = std::max(max_sp_64, s.ulysses_sp);
  }
  EXPECT_EQ(max_sp_64, 32);
}

TEST(MemoryModelTest, ZeroStagesShardProgressively) {
  const auto m = model::Gpt7B();
  ParallelStrategy s;
  s.tp = 1;
  s.dp = 8;
  s.zero_stage = 1;
  const ModelStateBytes z1 = ComputeModelStateBytes(m, s);
  s.zero_stage = 2;
  const ModelStateBytes z2 = ComputeModelStateBytes(m, s);
  s.zero_stage = 3;
  const ModelStateBytes z3 = ComputeModelStateBytes(m, s);

  EXPECT_EQ(z1.params, z2.params);
  EXPECT_GT(z1.grads, z2.grads);
  EXPECT_EQ(z2.grads, z3.grads);
  EXPECT_GT(z2.params, z3.params);
  EXPECT_EQ(z1.optimizer, z2.optimizer);
  // ZeRO-1 shards the 12-byte optimizer state by dp.
  EXPECT_NEAR(static_cast<double>(z1.optimizer),
              12.0 * m.num_parameters() / 8.0,
              static_cast<double>(kGiB));
}

TEST(MemoryModelTest, SevenBTp4Zero1IsAbout28GiB) {
  // 7B with TP=4, DP=CP=1: 16 bytes/param over 1/4 of the params ≈ 28 GiB —
  // the reason high TP degrees are mandatory at long sequence lengths.
  const auto m = model::Gpt7B();
  ParallelStrategy s;
  s.tp = 4;
  const ModelStateBytes bytes = ComputeModelStateBytes(m, s);
  EXPECT_NEAR(static_cast<double>(bytes.total()) / kGiB, 28.0, 3.0);
}

TEST(MemoryModelTest, ContextParallelShardsOptimizerState) {
  // Megatron's distributed optimizer shards over DP x CP: the 65B model at
  // TP=8 CP=8 must fit its states on an 80 GiB device (Table 7's 1408K
  // configuration is infeasible otherwise).
  const auto m = model::Gpt65B();
  ParallelStrategy s;
  s.tp = 8;
  s.cp = 8;
  const ModelStateBytes bytes = ComputeModelStateBytes(m, s);
  EXPECT_LT(bytes.total(), std::int64_t{60} * kGiB);
  ParallelStrategy no_cp = s;
  no_cp.cp = 1;
  EXPECT_GT(ComputeModelStateBytes(m, no_cp).total(), bytes.total());
}

TEST(MemoryModelTest, TpAndPpShardParams) {
  const auto m = model::Gpt65B();
  ParallelStrategy a;
  a.tp = 8;
  a.pp = 1;
  a.dp = 1;
  ParallelStrategy b;
  b.tp = 8;
  b.pp = 2;
  b.dp = 1;
  EXPECT_GT(ComputeModelStateBytes(m, a).total(),
            ComputeModelStateBytes(m, b).total());
}

}  // namespace
}  // namespace memo::parallel
