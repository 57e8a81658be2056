#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "model/activation_spec.h"

namespace memo::model {
namespace {

TEST(ActivationSpecTest, InventoryTotals16BshUnits) {
  // Fig. 5: all skeletal activations of one layer sum to 16 b*s*h elements.
  double total_units = 0;
  for (const SkeletalTensor& t : SkeletalInventory(Gpt7B())) {
    total_units += t.bsh_units;
  }
  EXPECT_DOUBLE_EQ(total_units, 16.0);
}

TEST(ActivationSpecTest, AttentionOutputIsOneSixteenth) {
  // §4.1: "the output of FlashAttention only accounts for 6.25% of total
  // skeletal activation size".
  const SkeletalLayout layout =
      ComputeSkeletalLayout(Gpt7B(), /*batch=*/1, /*seq_local=*/64 * kSeqK,
                            /*tensor_parallel=*/1);
  const double frac = static_cast<double>(layout.attn_out_bytes) /
                      static_cast<double>(layout.total_bytes());
  EXPECT_NEAR(frac, 0.0625, 0.002);  // small LSE overhead allowed
  const double input_frac = static_cast<double>(layout.input_bytes) /
                            static_cast<double>(layout.total_bytes());
  EXPECT_NEAR(input_frac, 0.0625, 0.002);
}

TEST(ActivationSpecTest, PaperHeadlineExample4096GiB) {
  // Abstract / §3.2: 7B model (32 layers, h=4096), s = 1M, b = 1, fp16
  // => skeletal activations total 4096 GiB across all layers.
  const ModelConfig m = Gpt7B();
  const SkeletalLayout layout = ComputeSkeletalLayout(
      m, /*batch=*/1, /*seq_local=*/1024 * kSeqK, /*tensor_parallel=*/1);
  const double total_gib = static_cast<double>(layout.total_bytes()) *
                           m.num_layers / static_cast<double>(kGiB);
  EXPECT_NEAR(total_gib, 4096.0, 8.0);  // +LSE rounding
}

TEST(ActivationSpecTest, ScalesLinearlyWithSequenceLength) {
  const ModelConfig m = Gpt7B();
  const auto at = [&](std::int64_t s) {
    return ComputeSkeletalLayout(m, 1, s, 1).total_bytes();
  };
  EXPECT_EQ(at(256 * kSeqK), 2 * at(128 * kSeqK));
  EXPECT_EQ(at(512 * kSeqK), 8 * at(64 * kSeqK));
}

TEST(ActivationSpecTest, TensorParallelShardsEverything) {
  const ModelConfig m = Gpt7B();
  const SkeletalLayout full = ComputeSkeletalLayout(m, 1, 128 * kSeqK, 1);
  const SkeletalLayout tp8 = ComputeSkeletalLayout(m, 1, 128 * kSeqK, 8);
  EXPECT_EQ(tp8.total_bytes(), full.total_bytes() / 8);
  EXPECT_EQ(tp8.input_bytes, full.input_bytes / 8);
  EXPECT_EQ(tp8.others_bytes, full.others_bytes / 8);
}

TEST(ActivationSpecTest, OthersBytesAre14SixteenthsOfTotal) {
  const SkeletalLayout layout = ComputeSkeletalLayout(Gpt7B(), 1, 64 * kSeqK, 4);
  const double frac = static_cast<double>(layout.others_bytes) /
                      static_cast<double>(layout.total_bytes());
  EXPECT_NEAR(frac, 14.0 / 16.0, 0.005);
}

TEST(ActivationSpecTest, FfnUnitsFollowFfnRatio) {
  ModelConfig m = Gpt7B();
  m.ffn_hidden = 2 * m.hidden;  // non-standard ratio
  double total_units = 0;
  for (const SkeletalTensor& t : SkeletalInventory(m)) {
    total_units += t.bsh_units;
  }
  EXPECT_DOUBLE_EQ(total_units, 12.0);  // 8 fixed + 2*2 FFN
}

TEST(ActivationSpecTest, GroupedQueryAttentionShrinksKv) {
  // Llama-3-8B shape: 8 KV heads of 32 => K and V are 0.25 units each; the
  // FFN ratio is 3.5x. Total = 6 + 2*0.25 + 2*3.5 = 13.5 units.
  const ModelConfig m = Llama8BGqa();
  double total_units = 0;
  double kv_units = 0;
  for (const SkeletalTensor& t : SkeletalInventory(m)) {
    total_units += t.bsh_units;
    if (t.name == "k" || t.name == "v") kv_units += t.bsh_units;
  }
  EXPECT_DOUBLE_EQ(kv_units, 0.5);
  EXPECT_DOUBLE_EQ(total_units, 13.5);

  // Byte accounting shrinks proportionally vs an MHA model of equal shape.
  ModelConfig mha = m;
  mha.num_kv_heads = 0;
  const SkeletalLayout gqa_layout = ComputeSkeletalLayout(m, 1, 64 * kSeqK, 1);
  const SkeletalLayout mha_layout =
      ComputeSkeletalLayout(mha, 1, 64 * kSeqK, 1);
  EXPECT_LT(gqa_layout.others_bytes, mha_layout.others_bytes);
  EXPECT_EQ(gqa_layout.input_bytes, mha_layout.input_bytes);
}

// ---- The swap schedule the simulator enqueues and the activation store
// runs.

/// One line per op: "name(layer)", then " <- " and the ops it waits for.
std::string Render(const std::vector<SwapOp>& ops) {
  std::string out;
  for (const SwapOp& op : ops) {
    out += SwapOpName(op.kind) + ("(" + std::to_string(op.layer) + ")");
    for (std::size_t w = 0; w < op.waits.size(); ++w) {
      const SwapOp& dep = ops[op.waits[w]];
      out += (w == 0 ? " <- " : ", ") + std::string(SwapOpName(dep.kind)) +
             "(" + std::to_string(dep.layer) + ")";
    }
    out += "\n";
  }
  return out;
}

TEST(SwapScheduleTest, FiveLayersWithSpillsHaveEveryEdge) {
  // Layers 3 and 4 stay in the rounding buffers; layers 0-2 swap through
  // host RAM to disk. offload(2) and spill_read(0) carry the staging edges.
  EXPECT_EQ(Render(SwapSchedule(5, /*spills=*/true)),
            "layer_fwd(0)\n"
            "offload(0) <- layer_fwd(0)\n"
            "spill_write(0) <- offload(0)\n"
            "layer_fwd(1)\n"
            "offload(1) <- layer_fwd(1)\n"
            "spill_write(1) <- offload(1)\n"
            "layer_fwd(2) <- offload(0)\n"
            "offload(2) <- layer_fwd(2), spill_write(0)\n"
            "spill_write(2) <- offload(2)\n"
            "layer_fwd(3) <- offload(1)\n"
            "layer_fwd(4) <- offload(2)\n"
            "layer_bwd(4)\n"
            "layer_bwd(3)\n"
            "spill_read(2) <- spill_write(2)\n"
            "prefetch(2) <- layer_bwd(4), offload(2), spill_read(2)\n"
            "layer_bwd(2) <- prefetch(2)\n"
            "spill_read(1) <- spill_write(1)\n"
            "prefetch(1) <- layer_bwd(3), offload(1), spill_read(1)\n"
            "layer_bwd(1) <- prefetch(1)\n"
            "spill_read(0) <- spill_write(0), prefetch(2)\n"
            "prefetch(0) <- layer_bwd(2), offload(0), spill_read(0)\n"
            "layer_bwd(0) <- prefetch(0)\n");
}

TEST(SwapScheduleTest, ShapeHoldsFromOneToSixLayers) {
  using K = SwapOpKind;
  for (int layers = 1; layers <= 6; ++layers) {
    for (bool spills : {false, true}) {
      SCOPED_TRACE(std::to_string(layers) + (spills ? " spilling" : ""));
      const std::vector<SwapOp> ops = SwapSchedule(layers, spills);
      // Every layer runs fwd and bwd; a swapped one also offload and
      // prefetch, plus spill_write and spill_read with spills. Two layers
      // or fewer have no transfer ops.
      const std::size_t transfers_per_layer = spills ? 4 : 2;
      EXPECT_EQ(ops.size(), 2 * static_cast<std::size_t>(layers) +
                                transfers_per_layer * SwappedLayers(layers));
      std::set<std::pair<K, int>> seen;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const SwapOp& op = ops[i];
        EXPECT_TRUE(seen.insert({op.kind, op.layer}).second)
            << SwapOpName(op.kind) << "(" << op.layer << ") twice";
        if (op.kind != K::kFwd && op.kind != K::kBwd) {
          // The last two layers have only fwd and bwd.
          EXPECT_TRUE(LayerSwaps(op.layer, layers))
              << SwapOpName(op.kind) << "(" << op.layer << ")";
        }
        if (!spills) {
          EXPECT_NE(op.kind, K::kSpillWrite);
          EXPECT_NE(op.kind, K::kSpillRead);
        }
        for (const int wait : op.waits) {
          // Program order: what an op waits for was enqueued before it.
          EXPECT_GE(wait, 0);
          EXPECT_LT(static_cast<std::size_t>(wait), i);
          const K dep = ops[wait].kind;
          if (!spills) {  // no staging edge without a disk tier
            EXPECT_FALSE(op.kind == K::kOffload && dep == K::kSpillWrite);
            EXPECT_FALSE(op.kind == K::kSpillRead && dep == K::kPrefetch);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace memo::model
