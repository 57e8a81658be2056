#ifndef MEMO_MODEL_ACTIVATION_SPEC_H_
#define MEMO_MODEL_ACTIVATION_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/model_config.h"

namespace memo::model {

/// Skeletal-tensor classes from the paper's Fig. 5 discussion. MEMO treats
/// the layer input and the FlashAttention output specially at the tensor
/// granularity (§4.1); everything else is managed at the token granularity.
enum class SkeletalClass {
  kLayerInput,   // input of the transformer layer (S_input)
  kAttnOutput,   // FlashAttention output (+ log-sum-exp) (S_attn)
  kOther,        // all remaining skeletal tensors (S_others)
};

/// One skeletal activation tensor produced during a transformer layer's
/// forward pass and kept for its backward pass.
struct SkeletalTensor {
  std::string name;
  SkeletalClass cls = SkeletalClass::kOther;
  /// Size in units of b*s*h elements (the paper's Fig. 5 bracket notation).
  /// Fractional for GQA K/V tensors (kv_heads/num_heads of a unit) and
  /// non-4x FFN ratios; 0 marks byte-sized side tensors via `extra_bytes`.
  double bsh_units = 0;
  /// Additional bytes not proportional to b*s*h (e.g. softmax LSE, LN rstd).
  std::int64_t extra_bytes = 0;
};

/// The complete skeletal inventory of one transformer layer, Fig. 5:
///   input(1) | ln1_out(1) | q(1) k(1) v(1) | attn_out(1) | proj_out(1) |
///   ln2_out(1) | fc1_out(4) | gelu_out(4)   == 16 b*s*h elements total.
/// FFN tensors assume h_ffn = 4h (all Table 2 models); for other ratios the
/// fc1/gelu units scale as h_ffn/h.
std::vector<SkeletalTensor> SkeletalInventory(const ModelConfig& config);

/// Byte sizes of the three skeletal classes for a given per-GPU shard.
/// `seq_local` is the number of tokens this GPU holds after sequence/context
/// parallel sharding; `batch` is the micro-batch size.
struct SkeletalLayout {
  std::int64_t input_bytes = 0;   // S_input
  std::int64_t attn_out_bytes = 0;  // S_attn
  std::int64_t others_bytes = 0;  // S_others
  std::int64_t total_bytes() const {
    return input_bytes + attn_out_bytes + others_bytes;
  }
};

/// Computes the per-layer skeletal byte layout. `hidden_local` is the hidden
/// size visible to this GPU (h / TP for the tensor-parallel regions; the
/// caller passes the already-sharded value).
SkeletalLayout ComputeSkeletalLayout(const ModelConfig& config,
                                     std::int64_t batch,
                                     std::int64_t seq_local,
                                     std::int64_t tensor_parallel);

/// Number of layers (of `num_layers`) whose skeletal tensors are swapped to
/// the host. The last two layers never swap (§4.1): when forward ends their
/// activations still sit in the two rounding buffers, and they are the first
/// two layers backward needs.
constexpr int SwappedLayers(int num_layers) {
  return num_layers > 2 ? num_layers - 2 : 0;
}

/// Whether `layer` is swapped, i.e. is not one of the last two layers that
/// stay in the rounding buffers (see SwappedLayers).
constexpr bool LayerSwaps(int layer, int num_layers) {
  return layer < SwappedLayers(num_layers);
}

/// The ops of one training step's swap schedule (§4.1, Fig. 11): a layer's
/// forward and backward on the compute stream, the D2H offload out of its
/// rounding buffer and the H2D prefetch back into one, and, with an NVMe
/// tier, the write of the stash to disk and its read back (the `spill`
/// stream).
enum class SwapOpKind {
  kFwd,
  kOffload,
  kSpillWrite,
  kSpillRead,
  kPrefetch,
  kBwd,
};

/// The op's label in the simulator's timeline and its span name in the
/// trainer: layer_fwd, offload, spill_write, spill_read, prefetch, layer_bwd.
const char* SwapOpName(SwapOpKind kind);

/// One op of a SwapSchedule and the ops it waits for.
struct SwapOp {
  SwapOpKind kind = SwapOpKind::kFwd;
  int layer = 0;
  /// Indices into the schedule of the ops this one waits for; each comes
  /// earlier in the schedule.
  std::vector<int> waits;
};

/// One step's swap schedule in program order: the forward layers, each
/// followed by its offload (and spill write), then the backward layers from
/// the last, each preceded by its spill read (and prefetch). The edges:
///   fwd(i)         <- offload(i-2)      rounding buffer i % 2 drained
///   offload(i)     <- fwd(i), spill_write(i-2)
///   spill_write(i) <- offload(i)
///   spill_read(i)  <- spill_write(i), prefetch(i+2)
///   prefetch(i)    <- bwd(i+2), offload(i), spill_read(i)
///   bwd(i)         <- prefetch(i)
/// An edge exists when both of its ops do. Only swapped layers (LayerSwaps)
/// have transfer ops, and the spill ops exist only when `spills` (the stash
/// has a disk tier). The two staging edges, spill_write(i-2) and
/// prefetch(i+2), bound the host blob buffers in use to two: one being
/// written or read on disk, one being filled or drained beside it.
std::vector<SwapOp> SwapSchedule(int num_layers, bool spills);

}  // namespace memo::model

#endif  // MEMO_MODEL_ACTIVATION_SPEC_H_
