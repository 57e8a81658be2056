#ifndef MEMO_PARALLEL_STRATEGY_H_
#define MEMO_PARALLEL_STRATEGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "hw/gpu_spec.h"
#include "model/model_config.h"

namespace memo::parallel {

/// The training system whose strategy space / executor is being used.
enum class SystemKind {
  kMemo,       // this paper: TP/CP/PP/DP + ZeRO-1 + token-wise swap/recompute
  kMegatron,   // Megatron-LM + TransformerEngine: TP/CP/PP/DP + ZeRO-1 + full AR
  kDeepSpeed,  // Megatron-DeepSpeed: Ulysses SP + ZeRO-3 + full AR
};

const char* SystemKindToString(SystemKind kind);

/// A distributed parallelism configuration (§2.3). Megatron-style sequence
/// parallelism is implied whenever tp > 1 (enabled in every paper run), so
/// it is not a separate degree.
struct ParallelStrategy {
  int tp = 1;          // tensor parallel size
  int cp = 1;          // context parallel size (Megatron/MEMO)
  int pp = 1;          // pipeline parallel size
  /// Virtual pipeline chunks per stage (Megatron's interleaved 1F1B);
  /// 1 = plain 1F1B. Only meaningful when pp > 1; must divide num_layers/pp.
  int virtual_pipeline = 1;
  int dp = 1;          // data parallel size
  int ulysses_sp = 1;  // DeepSpeed-Ulysses sequence parallel size
  int zero_stage = 1;  // ZeRO optimizer stage (0-3)
  bool full_recompute = false;  // vanilla full activation recomputation

  /// Total GPUs this strategy occupies.
  int world_size() const { return tp * cp * pp * dp * ulysses_sp; }

  /// Degree over which ZeRO shards states. Context-parallel ranks replicate
  /// parameters exactly like data-parallel ones (Megatron's distributed
  /// optimizer shards over DP x CP), and DeepSpeed's ZeRO-3 partitions over
  /// DP x Ulysses-SP.
  int zero_shard_degree() const { return dp * cp * ulysses_sp; }

  /// Tokens of a sequence of length `seq` held by one GPU after sequence
  /// sharding by CP or Ulysses-SP (TP's sequence-parallel regions are
  /// accounted separately via the TP divisor).
  std::int64_t SeqLocal(std::int64_t seq) const {
    return seq / (static_cast<std::int64_t>(cp) * ulysses_sp);
  }

  /// e.g. "TP=4 CP=2 PP=1 DP=1 ZeRO=1 AR=on".
  std::string ToString() const;
};

/// The fixed recipe the paper runs `system` with (Appendix A), on a
/// strategy of all-1 degrees: DeepSpeed-Ulysses trains with ZeRO-3 and full
/// recomputation, Megatron with ZeRO-1 and full recomputation, MEMO with
/// ZeRO-1 and neither (token-wise management replaces recomputation).
ParallelStrategy SystemRecipe(SystemKind system);

/// Checks that `strategy` is executable for `system` on the given model and
/// cluster: world size matches, TP fits in a node and divides heads/hidden,
/// Ulysses divides the head count (the paper's §5.2 DeepSpeed limitation),
/// PP divides the layer count, CP/SP divide the sequence.
Status ValidateStrategy(SystemKind system, const ParallelStrategy& strategy,
                        const model::ModelConfig& model,
                        const hw::ClusterSpec& cluster, std::int64_t seq);

/// Enumerates all valid strategies of `system` for the given workload,
/// mirroring the search space the paper tunes by hand (Appendix A):
///  * Megatron/MEMO: TP in {1,2,4,8}, CP and PP powers of two, DP the rest;
///  * DeepSpeed: Ulysses SP powers of two dividing the heads, ZeRO-3,
///    DP the rest.
/// Every candidate runs its system's SystemRecipe.
std::vector<ParallelStrategy> EnumerateStrategies(
    SystemKind system, const model::ModelConfig& model,
    const hw::ClusterSpec& cluster, std::int64_t seq);

}  // namespace memo::parallel

#endif  // MEMO_PARALLEL_STRATEGY_H_
