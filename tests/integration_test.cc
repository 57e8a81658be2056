// End-to-end integration tests asserting the paper's qualitative claims
// across the full stack (trace generation -> planning -> executors ->
// auto-tuning). These are the guarantees EXPERIMENTS.md reports against.

#include <gtest/gtest.h>

#include "core/memo_executor.h"
#include "common/units.h"
#include "plan_request_testing.h"

namespace memo::core {
namespace {

using parallel::SystemKind;
using testplan::Best;

const model::ModelConfig k7B = model::Gpt7B();

TEST(IntegrationTest, MemoDominatesBaselinesWhereverBothFit) {
  // Table 3's central claim, checked across the whole 8-GPU 7B column.
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  for (std::int64_t sk : {64, 128, 256, 384, 512, 640}) {
    const auto ours = Best(SystemKind::kMemo, k7B, sk * kSeqK, cluster);
    ASSERT_TRUE(ours.status.ok()) << sk;
    for (auto baseline : {SystemKind::kMegatron, SystemKind::kDeepSpeed}) {
      const auto other = Best(baseline, k7B, sk * kSeqK, cluster);
      if (!other.status.ok()) continue;
      EXPECT_GT(ours.best.metrics.mfu, other.best.metrics.mfu)
          << parallel::SystemKindToString(baseline) << " at " << sk << "K";
      EXPECT_GT(ours.best.metrics.tgs, other.best.metrics.tgs);
    }
  }
}

TEST(IntegrationTest, MemoHoldsFiftyPercentMfuAcrossLengths) {
  // "MEMO consistently achieves an MFU of approximately 50% across all
  //  model sizes and sequence lengths" (§5.2).
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  for (std::int64_t sk : {128, 256, 512, 768, 1024}) {
    const auto r = Best(SystemKind::kMemo, k7B, sk * kSeqK, cluster);
    ASSERT_TRUE(r.status.ok()) << sk;
    EXPECT_GT(r.best.metrics.mfu, 0.50) << sk << "K";
    EXPECT_LT(r.best.metrics.mfu, 0.60) << sk << "K";
  }
}

TEST(IntegrationTest, Headline7BOneMillionOn8Gpus) {
  const auto r =
      Best(SystemKind::kMemo, k7B, 1024 * kSeqK, hw::PaperCluster(8));
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.best.metrics.mfu, 0.523, 0.02);  // paper: 52.30%
}

TEST(IntegrationTest, ThirteenBOn16GpusReaches1408K) {
  // Table 3: MEMO trains the 13B model at 1408K on 16 GPUs.
  const auto r = Best(SystemKind::kMemo, model::Gpt13B(), 1408 * kSeqK,
                      hw::PaperCluster(16));
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_GT(r.best.metrics.mfu, 0.45);
}

TEST(IntegrationTest, DeepSpeedUlyssesHitsHeadCountWall) {
  // Fig 12(a): DeepSpeed's max sequence saturates between 32 and 64 GPUs
  // because Ulysses SP cannot exceed the 7B model's 32 heads.
  const std::int64_t step = 256 * kSeqK;
  const auto max32 = testplan::MaxSeq(SystemKind::kDeepSpeed, k7B,
                                      hw::PaperCluster(32), step,
                                      8192 * kSeqK);
  const auto max64 = testplan::MaxSeq(SystemKind::kDeepSpeed, k7B,
                                      hw::PaperCluster(64), step,
                                      8192 * kSeqK);
  EXPECT_EQ(max32, max64);
}

TEST(IntegrationTest, MemoAlphaAdaptsToHostPressure) {
  // Table 7's alpha rows: 1.0 at overlap-friendly mid lengths, decreasing
  // as (n-2) * offload bytes approach the host share.
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  double previous = 1.1;
  for (std::int64_t sk : {256, 640, 896, 1152}) {
    const auto r =
        RunMemoIteration(testplan::Request(k7B, sk * kSeqK, cluster), s);
    ASSERT_TRUE(r.ok()) << sk;
    EXPECT_LE(r->alpha, previous) << sk << "K";
    previous = r->alpha;
  }
}

TEST(IntegrationTest, ReportedPeaksNeverExceedDevice) {
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  for (auto system :
       {SystemKind::kMemo, SystemKind::kMegatron, SystemKind::kDeepSpeed}) {
    for (std::int64_t sk : {128, 512}) {
      const auto r = Best(system, k7B, sk * kSeqK, cluster);
      if (!r.status.ok()) continue;
      EXPECT_LE(r.best.peak_device_bytes, cluster.node.gpu.memory_bytes)
          << parallel::SystemKindToString(system) << " " << sk << "K";
    }
  }
}

TEST(IntegrationTest, MemoNeverTriggersReorganizations) {
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  for (std::int64_t sk : {64, 512, 1024}) {
    const auto r = Best(SystemKind::kMemo, k7B, sk * kSeqK, cluster);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.best.reorg_events, 0);
    EXPECT_DOUBLE_EQ(r.best.reorg_stall_seconds, 0.0);
  }
}

TEST(IntegrationTest, BiggerModelsOnBiggerClustersStillWork) {
  // One cell per Table 3 row beyond 7B (shortened for test time).
  struct Case {
    model::ModelConfig model;
    int gpus;
    std::int64_t seq;
  };
  for (const Case& c : {Case{model::Gpt13B(), 16, 512 * kSeqK},
                        Case{model::Gpt30B(), 32, 512 * kSeqK},
                        Case{model::Gpt65B(), 64, 512 * kSeqK}}) {
    const auto r =
        Best(SystemKind::kMemo, c.model, c.seq, hw::PaperCluster(c.gpus));
    EXPECT_TRUE(r.status.ok()) << c.model.name << ": " << r.status;
    if (r.status.ok()) {
      EXPECT_GT(r.best.metrics.mfu, 0.40) << c.model.name;
    }
  }
}

TEST(IntegrationTest, HostOffloadRespectsHostCapacity) {
  const hw::ClusterSpec cluster = hw::PaperCluster(8);
  for (std::int64_t sk : {512, 1024}) {
    const auto r = Best(SystemKind::kMemo, k7B, sk * kSeqK, cluster);
    ASSERT_TRUE(r.status.ok());
    EXPECT_LE(r.best.host_offload_bytes, cluster.host_bytes_per_gpu());
  }
}

}  // namespace
}  // namespace memo::core
