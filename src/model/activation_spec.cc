#include "model/activation_spec.h"

#include <array>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "common/logging.h"

namespace memo::model {

std::vector<SkeletalTensor> SkeletalInventory(const ModelConfig& config) {
  const double ffn_units = static_cast<double>(config.ffn_hidden) /
                           static_cast<double>(config.hidden);
  const double kv = config.kv_ratio();
  return {
      {"input", SkeletalClass::kLayerInput, 1, 0},
      {"input_norm", SkeletalClass::kOther, 1, 0},
      {"q", SkeletalClass::kOther, 1, 0},
      {"k", SkeletalClass::kOther, kv, 0},
      {"v", SkeletalClass::kOther, kv, 0},
      {"attn_out", SkeletalClass::kAttnOutput, 1, 0},
      {"proj_out", SkeletalClass::kOther, 1, 0},
      {"post_attn_norm", SkeletalClass::kOther, 1, 0},
      {"fc1_out", SkeletalClass::kOther, ffn_units, 0},
      {"gelu_out", SkeletalClass::kOther, ffn_units, 0},
  };
}

SkeletalLayout ComputeSkeletalLayout(const ModelConfig& config,
                                     std::int64_t batch,
                                     std::int64_t seq_local,
                                     std::int64_t tensor_parallel) {
  MEMO_CHECK_GT(batch, 0);
  MEMO_CHECK_GT(seq_local, 0);
  MEMO_CHECK_GT(tensor_parallel, 0);
  // With Megatron-style sequence parallelism (enabled in every paper run),
  // the non-TP regions are sharded along the sequence dimension and the TP
  // regions along heads / ffn columns, so every skeletal tensor ends up
  // 1/tensor_parallel of its full size on each GPU.
  const std::int64_t unit =
      batch * seq_local * config.hidden * ModelConfig::kBytesPerElement /
      tensor_parallel;
  // FlashAttention stores one fp32 log-sum-exp value per (head, token).
  const std::int64_t lse_bytes =
      batch * seq_local * (config.num_heads / tensor_parallel) * 4;

  SkeletalLayout layout;
  for (const SkeletalTensor& t : SkeletalInventory(config)) {
    const std::int64_t bytes =
        static_cast<std::int64_t>(
            std::llround(t.bsh_units * static_cast<double>(unit))) +
        t.extra_bytes;
    switch (t.cls) {
      case SkeletalClass::kLayerInput:
        layout.input_bytes += bytes;
        break;
      case SkeletalClass::kAttnOutput:
        layout.attn_out_bytes += bytes;
        break;
      case SkeletalClass::kOther:
        layout.others_bytes += bytes;
        break;
    }
  }
  layout.attn_out_bytes += lse_bytes;
  return layout;
}

const char* SwapOpName(SwapOpKind kind) {
  switch (kind) {
    case SwapOpKind::kFwd:
      return "layer_fwd";
    case SwapOpKind::kOffload:
      return "offload";
    case SwapOpKind::kSpillWrite:
      return "spill_write";
    case SwapOpKind::kSpillRead:
      return "spill_read";
    case SwapOpKind::kPrefetch:
      return "prefetch";
    case SwapOpKind::kBwd:
      return "layer_bwd";
  }
  return "?";
}

std::vector<SwapOp> SwapSchedule(int num_layers, bool spills) {
  MEMO_CHECK_GE(num_layers, 0);
  using K = SwapOpKind;
  constexpr int kKinds = static_cast<int>(K::kBwd) + 1;
  std::vector<SwapOp> ops;
  // index[layer][kind]: where the op sits in `ops`, -1 until it is added.
  std::vector<std::array<int, kKinds>> index(num_layers);
  for (std::array<int, kKinds>& kinds : index) kinds.fill(-1);
  const auto add = [&](K kind, int layer,
                       std::initializer_list<std::pair<K, int>> waits) {
    SwapOp op{kind, layer, {}};
    for (const auto& [wait_kind, wait_layer] : waits) {
      if (wait_layer < 0 || wait_layer >= num_layers) continue;
      const int at = index[wait_layer][static_cast<int>(wait_kind)];
      if (at >= 0) op.waits.push_back(at);
    }
    index[layer][static_cast<int>(kind)] = static_cast<int>(ops.size());
    ops.push_back(std::move(op));
  };
  for (int i = 0; i < num_layers; ++i) {
    add(K::kFwd, i, {{K::kOffload, i - 2}});
    if (!LayerSwaps(i, num_layers)) continue;
    add(K::kOffload, i, {{K::kFwd, i}, {K::kSpillWrite, i - 2}});
    if (spills) add(K::kSpillWrite, i, {{K::kOffload, i}});
  }
  for (int i = num_layers - 1; i >= 0; --i) {
    if (LayerSwaps(i, num_layers)) {
      if (spills) {
        add(K::kSpillRead, i, {{K::kSpillWrite, i}, {K::kPrefetch, i + 2}});
      }
      add(K::kPrefetch, i,
          {{K::kBwd, i + 2}, {K::kOffload, i}, {K::kSpillRead, i}});
    }
    add(K::kBwd, i, {{K::kPrefetch, i}});
  }
  return ops;
}

}  // namespace memo::model
