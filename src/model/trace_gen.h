#ifndef MEMO_MODEL_TRACE_GEN_H_
#define MEMO_MODEL_TRACE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "model/activation_spec.h"
#include "model/model_config.h"

namespace memo::model {

/// One entry of a memory request sequence, in the paper's Fig. 4 format:
/// "malloc tensor_id size" / "free tensor_id size".
struct MemoryRequest {
  enum class Kind { kMalloc, kFree };
  Kind kind = Kind::kMalloc;
  std::int64_t tensor_id = 0;
  std::int64_t bytes = 0;
  /// Skeletal tensors are produced in a forward pass and freed in the
  /// corresponding backward pass; transient tensors are created and
  /// discarded within a single layer's forward or backward pass (§3.1).
  bool skeletal = false;
  std::string name;
};

/// How skeletal activations are managed, which changes the request trace the
/// allocator sees:
///  * kRetainAll      — vanilla training: all skeletal tensors stay allocated
///                      from forward until consumed in backward.
///  * kFullRecompute  — Megatron-style full activation recomputation: only
///                      each layer's input survives the forward pass; during
///                      backward the layer forward is replayed, re-allocating
///                      the skeletal set.
///  * kMemoBuffers    — MEMO: skeletal tensors live in the pre-allocated
///                      rounding buffers (§4.1) and never reach the dynamic
///                      allocator; only transient tensors appear.
enum class ActivationMode { kRetainAll, kFullRecompute, kMemoBuffers };

/// Parameters of trace generation for one GPU rank.
/// Each rank processes one sequence per iteration (batch 1), and every
/// GEMM takes a 32 MiB cuBLAS-style workspace.
struct TraceGenOptions {
  /// Tokens held by this rank (already divided by CP/SP sharding).
  std::int64_t seq_local = 0;
  /// Tensor-parallel degree (shards hidden/ffn/head dimensions).
  std::int64_t tensor_parallel = 1;
  ActivationMode mode = ActivationMode::kRetainAll;
  /// The classifier materializes logits in this many sequence chunks
  /// (Megatron-style chunked vocab-parallel cross entropy).
  int classifier_chunks = 8;
  /// Optional per-layer FFN width multipliers (MoE-style uneven layers:
  /// token routing gives each expert layer a different effective FFN
  /// width). Empty means every layer uses config.ffn_hidden; otherwise
  /// must hold exactly config.num_layers entries and layer i's FFN
  /// tensors scale by layer_ffn_scale[i].
  std::vector<double> layer_ffn_scale;
};

/// A contiguous region of a request trace, e.g. one layer's forward pass.
/// Segments let the bi-level planner (§4.2) identify the repeated
/// transformer-layer substructure. `begin`/`end` index into
/// `ModelTrace::requests`, half-open.
struct TraceSegment {
  std::string name;  // "embedding_fwd", "layer_fwd", "layer_bwd", ...
  int begin = 0;
  int end = 0;
  /// Layer index for transformer-layer segments, -1 otherwise.
  int layer = -1;
};

/// A full training-iteration request trace (the paper's Fig. 9): embedding
/// forward, n layer forwards, classifier forward+backward, n layer backwards
/// (reverse order), embedding backward.
struct ModelTrace {
  std::vector<MemoryRequest> requests;
  std::vector<TraceSegment> segments;

  /// Sum of malloc bytes currently live after executing `requests[0..i)`,
  /// maximized over i — a lower bound for any allocator.
  std::int64_t MaxLiveBytes() const;

  /// Validates malloc/free pairing: every free matches a prior live malloc
  /// with the same size; no tensor freed twice.
  Status Validate() const;
};

/// Forward request trace of one interior transformer layer, extracted from a
/// small model trace (all interior layers are identical, §3.3). The layer's
/// input pre-exists (allocated by the previous segment); its output *is*
/// allocated by this trace (it is the next layer's input).
std::vector<MemoryRequest> GenerateLayerForwardTrace(
    const ModelConfig& config, const TraceGenOptions& options);

/// Backward request trace of the same interior layer. Frees in it reference
/// the tensor_ids allocated by the matching GenerateLayerForwardTrace. In
/// kFullRecompute mode the recompute replay is prepended.
std::vector<MemoryRequest> GenerateLayerBackwardTrace(
    const ModelConfig& config, const TraceGenOptions& options);

/// Generates the whole-iteration trace of Fig. 9 for an `config.num_layers`-
/// layer model (embedding + transformer layers + classifier, forward and
/// backward).
ModelTrace GenerateModelTrace(const ModelConfig& config,
                              const TraceGenOptions& options);

/// Renders a request trace in the paper's Fig. 4 table format.
std::string FormatTrace(const std::vector<MemoryRequest>& requests);

/// Most bytes one request, or one iteration at any point, may hold live:
/// 2^62, so live-byte sums (ModelTrace::MaxLiveBytes, an allocator's
/// counters) stay clear of int64's wrap.
inline constexpr std::int64_t kMaxLiveBytes = std::int64_t{1} << 62;

/// A multi-iteration request workload: the unit the trace-driven replay
/// engine feeds through one shared CachingAllocator (the regime where
/// iteration-to-iteration shape changes fragment the cache, Fig. 1a).
struct WorkloadTrace {
  std::vector<ModelTrace> iterations;

  std::size_t TotalRequests() const;

  /// OK when no request's size and no iteration's running live bytes
  /// (malloc bytes less free bytes, summed with overflow checks) exceed
  /// kMaxLiveBytes; otherwise INVALID_ARGUMENT naming the iteration.
  Status CheckLiveBytes() const;
};

/// Parameters shared by the synthetic workload generators. All randomness
/// comes from a splitmix64 stream seeded with `seed`, so a (config,
/// options, seed) triple names one exact workload on every host.
struct WorkloadGenOptions {
  int iterations = 8;
  std::uint64_t seed = 1;
  /// Per-rank sequence-length range for the variable-length and diurnal
  /// generators. Drawn lengths are rounded to a multiple of
  /// base.classifier_chunks * 16 so chunked-classifier sizes stay exact.
  std::int64_t seq_local_min = 4 * kSeqK;
  std::int64_t seq_local_max = 16 * kSeqK;
  /// MoE generator: per-layer FFN scale is drawn uniformly from
  /// [1 - spread, 1 + spread] (clamped to >= 0.25) each iteration,
  /// modelling routing imbalance that shifts between batches.
  double moe_spread = 0.75;
};

/// Variable-length batches: every iteration draws an independent uniform
/// sequence length from [seq_local_min, seq_local_max] — the
/// sorted-then-shuffled sample-length mix of real long-context corpora.
WorkloadTrace GenerateVariableLengthWorkload(const ModelConfig& config,
                                             const TraceGenOptions& base,
                                             const WorkloadGenOptions& options);

/// MoE-style uneven layers: sequence length stays at base.seq_local but
/// each iteration re-draws per-layer FFN width multipliers, so the layer
/// substructure the bi-level planner relies on stops being uniform.
WorkloadTrace GenerateMoeWorkload(const ModelConfig& config,
                                  const TraceGenOptions& base,
                                  const WorkloadGenOptions& options);

/// Diurnal load ramp: sequence length follows a triangle wave from
/// seq_local_min up to seq_local_max and back across the workload, with
/// ±5% jitter — a serving-style day/night cycle compressed into one run.
WorkloadTrace GenerateDiurnalWorkload(const ModelConfig& config,
                                      const TraceGenOptions& base,
                                      const WorkloadGenOptions& options);

}  // namespace memo::model

#endif  // MEMO_MODEL_TRACE_GEN_H_
