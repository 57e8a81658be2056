// Regenerates the paper's Fig. 12(a) and 12(b): the longest supported
// sequence length of DeepSpeed, Megatron-LM and MEMO when training the 7B
// model on 8/16/32/64 GPUs, and the MFU achieved at that longest length.
// The paper's headline: MEMO scales linearly (1M/2M/4M/8M) above both
// baselines while holding >50% MFU.

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"

int main() {
  const memo::model::ModelConfig model = memo::model::Gpt7B();
  const std::int64_t step = 128 * memo::kSeqK;

  std::printf(
      "Fig 12(a)/(b): longest supported sequence and MFU at it, 7B model\n\n");
  memo::TablePrinter table({"#GPUs", "system", "max seq", "MFU@max",
                            "strategy", "alpha"});
  for (int gpus : {8, 16, 32, 64}) {
    memo::core::PlanRequest request;
    request.kind = memo::core::PlanQueryKind::kMaxSeq;
    request.model = model;
    request.seq = step;
    request.cluster = memo::hw::PaperCluster(gpus);
    request.seq_step = step;
    request.seq_cap = static_cast<std::int64_t>(gpus) * 256 * memo::kSeqK;
    for (auto system : {memo::parallel::SystemKind::kDeepSpeed,
                        memo::parallel::SystemKind::kMegatron,
                        memo::parallel::SystemKind::kMemo}) {
      request.system = system;
      const std::int64_t max_seq =
          memo::core::ExecutePlanRequest(request).max_seq;
      std::string mfu = "-";
      std::string strategy = "-";
      std::string alpha = "-";
      if (max_seq > 0) {
        memo::core::PlanRequest at_max = request;
        at_max.kind = memo::core::PlanQueryKind::kBestStrategy;
        at_max.seq = max_seq;
        const memo::core::PlanResult r =
            memo::core::ExecutePlanRequest(at_max);
        if (r.status.ok()) {
          mfu = memo::StrFormat("%.2f%%", r.best.metrics.mfu * 100.0);
          strategy = r.best.strategy.ToString();
          alpha = memo::StrFormat("%.3f", r.best.alpha);
        }
      }
      table.AddRow({std::to_string(gpus),
                    memo::parallel::SystemKindToString(system),
                    memo::FormatSeqLen(max_seq), mfu, strategy, alpha});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: MEMO 1024K/2048K/4096K/8192K (linear in GPUs, >50%% "
      "MFU);\nMegatron sublinear; DeepSpeed capped by SP <= head count "
      "(32).\n");
  return 0;
}
