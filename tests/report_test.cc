#include <gtest/gtest.h>

#include "common/units.h"
#include "core/baseline_executors.h"
#include "core/memo_executor.h"
#include "core/report.h"
#include "plan_request_testing.h"

namespace memo::core {
namespace {

using testplan::Request;

TEST(ReportTest, RendersAllKeyQuantities) {
  parallel::ParallelStrategy strategy;
  strategy.tp = 4;
  strategy.cp = 2;
  const auto model = model::Gpt7B();
  auto r = RunMemoIteration(Request(model, 256 * kSeqK, hw::PaperCluster(8)),
                            strategy);
  ASSERT_TRUE(r.ok());
  const std::string report = FormatIterationReport(*r, model);
  for (const char* needle :
       {"7B (6.85B params)", "TP=4 CP=2", "MFU", "tokens/GPU/s",
        "rounding buffers / GPU", "host offload / GPU",
        "host RAM tier / GPU", "disk spill tier / GPU",
        "allocator reorganizations", "swap fraction alpha"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  // MEMO rows: zero reorgs with zero stall.
  EXPECT_NE(report.find("0 (0.00ns)"), std::string::npos);
}

TEST(ReportTest, TableIsTwoColumns) {
  parallel::ParallelStrategy strategy;
  strategy.tp = 8;
  const auto model = model::Gpt7B();
  auto r = RunMemoIteration(Request(model, 128 * kSeqK, hw::PaperCluster(8)),
                            strategy);
  ASSERT_TRUE(r.ok());
  const TablePrinter table = IterationReportTable(*r, model);
  EXPECT_GE(table.num_rows(), 12);
}

TEST(InterleavedStrategyTest, VirtualPipelineChangesIterationTime) {
  // 13B on 16 GPUs with PP=2 (a shape the paper's Appendix uses): the
  // interleaved schedule shrinks the pipeline bubble vs plain 1F1B.
  parallel::ParallelStrategy plain;
  plain.tp = 4;
  plain.cp = 2;
  plain.pp = 2;
  plain.full_recompute = true;
  parallel::ParallelStrategy interleaved = plain;
  interleaved.virtual_pipeline = 2;
  const PlanRequest request =
      Request(model::Gpt13B(), 256 * kSeqK, hw::PaperCluster(16));
  auto a = RunMegatronIteration(request, plain);
  auto b = RunMegatronIteration(request, interleaved);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_LT(b->iteration_seconds, a->iteration_seconds);
  EXPECT_NE(b->strategy.ToString().find("VPP=2"), std::string::npos);
}

TEST(InterleavedStrategyTest, ValidationRules) {
  const auto cluster = hw::PaperCluster(16);
  const auto m = model::Gpt13B();  // 40 layers
  parallel::ParallelStrategy s;
  s.tp = 4;
  s.cp = 2;
  s.pp = 2;
  s.virtual_pipeline = 4;  // 20 layers/stage, divisible by 4
  s.full_recompute = true;
  EXPECT_TRUE(parallel::ValidateStrategy(parallel::SystemKind::kMegatron, s,
                                         m, cluster, 256 * kSeqK)
                  .ok());
  s.virtual_pipeline = 3;  // 20 % 3 != 0
  EXPECT_FALSE(parallel::ValidateStrategy(parallel::SystemKind::kMegatron, s,
                                          m, cluster, 256 * kSeqK)
                   .ok());
  s.virtual_pipeline = 2;
  s.pp = 1;
  s.dp = 2;  // keep world size
  EXPECT_FALSE(parallel::ValidateStrategy(parallel::SystemKind::kMegatron, s,
                                          m, cluster, 256 * kSeqK)
                   .ok());  // vpp needs pp > 1
}

}  // namespace
}  // namespace memo::core
