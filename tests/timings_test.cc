#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/job_profiler.h"
#include "core/memo_executor.h"
#include "core/timings.h"
#include "common/units.h"
#include "plan_request_testing.h"

namespace memo::core {
namespace {

const hw::ClusterSpec kCluster8 = hw::PaperCluster(8);
const model::ModelConfig k7B = model::Gpt7B();

PlanRequest Job7B(std::int64_t seq,
                  const hw::ClusterSpec& cluster = kCluster8) {
  return testplan::Request(k7B, seq, cluster);
}

IterationTimings TimingsFor(parallel::ParallelStrategy s, std::int64_t seq,
                            const hw::ClusterSpec& cluster = kCluster8) {
  return ComputeIterationTimings(parallel::SystemKind::kMemo, k7B, s, cluster,
                                 hw::DefaultCalibration(), seq);
}

TEST(TimingsTest, ComputeScalesQuadraticallyTransferLinearly) {
  parallel::ParallelStrategy s;
  s.tp = 8;
  const auto t1 = TimingsFor(s, 128 * kSeqK);
  const auto t2 = TimingsFor(s, 256 * kSeqK);
  // Attention time quadruples, offload time doubles (Observation 1).
  EXPECT_NEAR(t2.layer.fwd_flash / t1.layer.fwd_flash, 4.0, 0.01);
  EXPECT_NEAR(t2.offload_layer_full / t1.offload_layer_full, 2.0, 0.01);
}

TEST(TimingsTest, BackwardCostsRoughlyTwiceForward) {
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  const auto t = TimingsFor(s, 256 * kSeqK);
  EXPECT_GT(t.layer.bwd_compute, 1.8 * t.layer.fwd_compute);
  EXPECT_LT(t.layer.bwd_compute, 2.5 * t.layer.fwd_compute);
}

TEST(TimingsTest, RecomputeNonAttnExcludesFlash) {
  parallel::ParallelStrategy s;
  s.tp = 8;
  const auto t = TimingsFor(s, 1024 * kSeqK);
  // At 1M tokens FlashAttention dominates, so token-wise recompute (which
  // never replays attention) is a small fraction of the full replay.
  EXPECT_LT(t.layer.recompute_nonattn, 0.15 * t.layer.recompute_full);
  EXPECT_NEAR(t.layer.recompute_full - t.layer.recompute_nonattn,
              t.layer.fwd_flash, 1e-9);
}

TEST(TimingsTest, TensorParallelAddsCollectives) {
  parallel::ParallelStrategy tp1;
  tp1.cp = 8;
  parallel::ParallelStrategy tp8;
  tp8.tp = 8;
  EXPECT_DOUBLE_EQ(TimingsFor(tp1, 256 * kSeqK).layer.fwd_comm, 0.0);
  EXPECT_GT(TimingsFor(tp8, 256 * kSeqK).layer.fwd_comm, 0.0);
}

TEST(TimingsTest, ContextParallelRingCommOverlapsWithFlash) {
  parallel::ParallelStrategy s;
  s.tp = 2;
  s.cp = 4;
  const auto t = TimingsFor(s, 512 * kSeqK);
  EXPECT_GT(t.layer.cp_fwd_comm, 0.0);
  // At long sequences the ring exchange hides under attention compute.
  EXPECT_LT(t.layer.cp_fwd_comm, t.layer.fwd_flash);
}

TEST(TimingsTest, UlyssesAllToAllCost) {
  parallel::ParallelStrategy s;
  s.ulysses_sp = 8;
  s.zero_stage = 3;
  s.full_recompute = true;
  const auto t = ComputeIterationTimings(parallel::SystemKind::kDeepSpeed,
                                         k7B, s, kCluster8,
                                         hw::DefaultCalibration(),
                                         256 * kSeqK);
  EXPECT_GT(t.layer.fwd_comm, 0.0);
  EXPECT_GT(t.layer.bwd_comm, t.layer.fwd_comm);  // ZeRO-3 regathers + RS
}

TEST(TimingsTest, PipelineSplitsLayersAndAddsP2P) {
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.pp = 2;
  const auto t = TimingsFor(s, 256 * kSeqK);
  EXPECT_EQ(t.layers_per_stage, k7B.num_layers / 2);
  EXPECT_GT(t.pp_p2p, 0.0);
}

TEST(TimingsTest, GradSyncOnlyWithDataParallel) {
  parallel::ParallelStrategy solo;
  solo.tp = 8;
  EXPECT_DOUBLE_EQ(TimingsFor(solo, 256 * kSeqK).grad_sync, 0.0);
  parallel::ParallelStrategy dp;
  dp.tp = 4;
  dp.dp = 2;
  EXPECT_GT(TimingsFor(dp, 256 * kSeqK).grad_sync, 0.0);
}

TEST(JobProfilerTest, ProfilesHeadlineWorkload) {
  parallel::ParallelStrategy s;
  s.tp = 8;
  auto profile = ProfileJob(Job7B(1024 * kSeqK), s);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_FALSE(profile->trace.requests.empty());
  EXPECT_TRUE(profile->trace.Validate().ok());
  const model::SkeletalLayout& skeletal = profile->timings.skeletal;
  EXPECT_GT(skeletal.total_bytes(), 0);
  EXPECT_GE(profile->alpha.alpha, 0.0);
  EXPECT_LE(profile->alpha.alpha, 1.0);
  // alpha quantized to eighths by default.
  EXPECT_DOUBLE_EQ(profile->alpha.alpha * 8,
                   std::round(profile->alpha.alpha * 8));
  EXPECT_GE(profile->offload_bytes_per_layer,
            skeletal.input_bytes + skeletal.attn_out_bytes);
}

TEST(JobProfilerTest, TraceIsMemoMode) {
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  auto profile = ProfileJob(Job7B(256 * kSeqK), s);
  ASSERT_TRUE(profile.ok());
  for (const auto& seg : profile->trace.segments) {
    if (seg.name != "layer_fwd" && seg.name != "layer_bwd") continue;
    for (int i = seg.begin; i < seg.end; ++i) {
      EXPECT_FALSE(profile->trace.requests[i].skeletal);
    }
  }
}

TEST(JobProfilerTest, AlphaMatchesTheExecutorAcrossCpAndNvme) {
  // The executor runs the profiler's profile: the same exposed
  // context-parallel communication and the same NVMe tier, so the alpha
  // `plan` reports is the alpha `run` trains with, solved or forced, the
  // profiled offload bytes are what reaches the host tiers, and an OOHM is
  // reported by both or by neither.
  int nonzero = 0;
  int spilled = 0;
  int host_bound = 0;
  for (const double forced : {-1.0, 0.0, 0.5, 1.0}) {
    for (const int cp : {1, 2, 4}) {
      for (const std::int64_t host_gib : {64, 256}) {
        for (const bool nvme : {false, true}) {
          hw::ClusterSpec cluster = hw::PaperCluster(8);
          cluster.node.host_memory_bytes = host_gib * kGiB;
          if (nvme) cluster.node.nvme_bytes = 8192 * kGiB;
          parallel::ParallelStrategy s;
          s.tp = 8 / cp;
          s.cp = cp;
          PlanRequest request = Job7B(512 * kSeqK, cluster);
          request.forced_alpha = forced;
          const auto profile = ProfileJob(request, s);
          const auto run = RunMemoIteration(request, s);
          const std::string where =
              "alpha " + (forced < 0.0 ? "solved" : std::to_string(forced)) +
              ", cp " + std::to_string(cp) + ", host " +
              std::to_string(host_gib) + " GiB, nvme " + (nvme ? "on" : "off");
          if (!profile.ok()) {
            EXPECT_EQ(profile.status().code(), run.status().code())
                << where << ": " << profile.status() << " vs "
                << run.status();
            if (profile.status().IsOutOfHostMemory()) ++host_bound;
            continue;
          }
          // Past the profile only device memory can stop the run.
          ASSERT_TRUE(run.ok() || run.status().IsOutOfMemory())
              << where << ": " << run.status();
          if (!run.ok()) continue;
          EXPECT_EQ(profile->alpha.alpha, run->alpha) << where;
          if (forced >= 0.0) {
            EXPECT_EQ(run->alpha, forced) << where;
          }
          EXPECT_EQ(run->host_offload_bytes,
                    model::SwappedLayers(profile->timings.layers_per_stage) *
                        profile->offload_bytes_per_layer)
              << where;
          if (run->alpha > 0.0) ++nonzero;
          if (run->host_disk_bytes > 0) ++spilled;
        }
      }
    }
  }
  // The grid exercises the disk tier, a nonzero swap fraction and X_oohm.
  EXPECT_GT(nonzero, 0);
  EXPECT_GT(spilled, 0);
  EXPECT_GT(host_bound, 0);
}

TEST(JobProfilerTest, RejectsInvalidStrategy) {
  parallel::ParallelStrategy bad;
  bad.tp = 3;  // does not divide heads, nor world size
  EXPECT_FALSE(ProfileJob(Job7B(256 * kSeqK), bad).ok());
}

}  // namespace
}  // namespace memo::core
