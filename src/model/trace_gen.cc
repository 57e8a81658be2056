#include "model/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/units.h"

namespace memo::model {

namespace {

/// Per-rank tensor byte sizes used throughout trace emission.
struct Sizes {
  std::int64_t unit;       // one s*h fp16 tensor, TP-sharded
  std::int64_t kv;         // one K or V tensor (GQA-scaled), TP-sharded
  std::int64_t ffn;        // one s*h_ffn fp16 tensor, TP-sharded
  std::int64_t gathered;   // sequence-parallel AllGather output (un-sharded)
  std::int64_t rstd;       // LayerNorm fp32 inverse-stddev per token
  std::int64_t lse;        // FlashAttention fp32 log-sum-exp per (head, token)
  std::int64_t workspace;  // cuBLAS GEMM workspace
  std::int64_t logits_chunk;  // one classifier chunk of fp16 logits
  std::int64_t tp;         // tensor-parallel degree (gathered == unit * tp)
};

/// cuBLAS-style per-GEMM workspace allocation.
constexpr std::int64_t kGemmWorkspaceBytes = 32 * kMiB;

Sizes ComputeSizes(const ModelConfig& config, const TraceGenOptions& options) {
  const std::int64_t s = options.seq_local;
  const std::int64_t tp = options.tensor_parallel;
  // A shard is at least one element, however wide the TP group.
  constexpr std::int64_t kElement = ModelConfig::kBytesPerElement;
  Sizes sizes;
  sizes.unit =
      std::max<std::int64_t>(s * config.hidden * kElement / tp, kElement);
  sizes.ffn =
      std::max<std::int64_t>(s * config.ffn_hidden * kElement / tp, kElement);
  sizes.kv = std::max<std::int64_t>(
      static_cast<std::int64_t>(sizes.unit * config.kv_ratio()), kElement);
  sizes.gathered = sizes.unit * tp;
  sizes.rstd = std::max<std::int64_t>(s * 4 / tp, 4);
  sizes.lse = std::max<std::int64_t>(s * config.num_heads * 4 / tp, 4);
  sizes.workspace = kGemmWorkspaceBytes;
  sizes.logits_chunk = std::max<std::int64_t>(
      (s / options.classifier_chunks) * config.vocab *
          ModelConfig::kBytesPerElement / tp,
      ModelConfig::kBytesPerElement);
  sizes.tp = tp;
  return sizes;
}

/// Emits requests while tracking live tensors by name, so frees can refer to
/// the id and size of the matching malloc, including across segments (a
/// layer's input is the previous layer's output).
class TraceEmitter {
 public:
  explicit TraceEmitter(ModelTrace* trace) : trace_(trace) {}

  void BeginSegment(std::string name, int layer) {
    MEMO_CHECK_LT(open_segment_, 0) << "segment already open";
    open_segment_ = static_cast<int>(trace_->segments.size());
    trace_->segments.push_back(TraceSegment{
        std::move(name), static_cast<int>(trace_->requests.size()),
        static_cast<int>(trace_->requests.size()), layer});
  }

  void EndSegment() {
    MEMO_CHECK_GE(open_segment_, 0) << "no segment open";
    trace_->segments[open_segment_].end =
        static_cast<int>(trace_->requests.size());
    open_segment_ = -1;
  }

  void Malloc(const std::string& name, std::int64_t bytes, bool skeletal) {
    MEMO_CHECK_GT(bytes, 0) << name;
    MEMO_CHECK(live_.find(name) == live_.end()) << "double malloc: " << name;
    const std::int64_t id = next_id_++;
    live_[name] = LiveTensor{id, bytes, skeletal};
    trace_->requests.push_back(
        MemoryRequest{MemoryRequest::Kind::kMalloc, id, bytes, skeletal, name});
  }

  void Free(const std::string& name) {
    auto it = live_.find(name);
    MEMO_CHECK(it != live_.end()) << "free of dead tensor: " << name;
    trace_->requests.push_back(MemoryRequest{MemoryRequest::Kind::kFree,
                                             it->second.id, it->second.bytes,
                                             it->second.skeletal, name});
    live_.erase(it);
  }

  bool IsLive(const std::string& name) const { return live_.count(name) > 0; }

  /// Re-keys a live tensor without touching the trace: the layer backward
  /// emits its input-gradient under a layer-local name, which the next
  /// backward segment consumes under the global gradient name.
  void Rename(const std::string& from, const std::string& to) {
    auto it = live_.find(from);
    MEMO_CHECK(it != live_.end()) << "rename of dead tensor: " << from;
    MEMO_CHECK(live_.find(to) == live_.end()) << "rename onto live: " << to;
    LiveTensor t = it->second;
    live_.erase(it);
    live_[to] = t;
  }

 private:
  struct LiveTensor {
    std::int64_t id;
    std::int64_t bytes;
    bool skeletal;
  };

  ModelTrace* trace_;
  std::unordered_map<std::string, LiveTensor> live_;
  std::int64_t next_id_ = 0;
  int open_segment_ = -1;
};

/// Names of the per-layer skeletal tensors re-created by a recompute replay
/// or freed at the end of a full-recompute forward (everything but the
/// retained layer input, §2.2).
const char* const kLayerSkeletalNames[] = {
    "ln1_out", "ln1_rstd", "q", "k", "v", "attn_out", "lse",
    "proj_out", "ln2_out", "ln2_rstd", "fc1_out", "gelu_out"};

/// Emits a transformer layer's forward computation. `p` is the tensor-name
/// prefix ("L3."). Skeletal tensors are tagged skeletal only when the mode
/// retains them (in kMemoBuffers they never reach the allocator; callers of
/// this function skip them via `emit_skeletal=false` and the rounding-buffer
/// executor accounts for them separately).
void EmitLayerForward(TraceEmitter& e, const std::string& p, const Sizes& sz,
                      const TraceGenOptions& options, bool replay) {
  const ActivationMode mode = options.mode;
  const bool skeletal_tagged = mode == ActivationMode::kRetainAll || replay;
  const bool emit_skeletal = mode != ActivationMode::kMemoBuffers;
  // In full-recompute mode the forward-pass skeletal tensors are still
  // allocated (they exist while the layer computes) but are freed before the
  // next layer runs, so they behave as transients for the allocator; the
  // replay during backward re-creates them as (short-lived) skeletals.
  const bool tag = mode == ActivationMode::kFullRecompute ? replay
                                                          : skeletal_tagged;

  auto malloc_skel = [&](const std::string& name, std::int64_t bytes) {
    if (emit_skeletal) e.Malloc(p + name, bytes, tag);
  };

  malloc_skel("ln1_out", sz.unit);
  malloc_skel("ln1_rstd", sz.rstd);
  // With sequence parallelism (implied by tp > 1) the LN output is stored
  // sequence-sharded; an AllGather materializes the full-sequence input of
  // the QKV projection as a transient (Korthikanti et al.). These gathered
  // tensors are tp-times larger than the sharded ones — the size
  // heterogeneity that fragments the caching allocator.
  if (sz.tp > 1) e.Malloc(p + "ln1_gathered", sz.gathered, false);
  e.Malloc(p + "ws_qkv", sz.workspace, false);
  e.Malloc(p + "qkv_packed", sz.unit + 2 * sz.kv, false);
  e.Free(p + "ws_qkv");
  if (sz.tp > 1) e.Free(p + "ln1_gathered");
  malloc_skel("q", sz.unit);
  malloc_skel("k", sz.kv);
  malloc_skel("v", sz.kv);
  e.Free(p + "qkv_packed");
  malloc_skel("attn_out", sz.unit);
  malloc_skel("lse", sz.lse);
  e.Malloc(p + "ws_proj", sz.workspace, false);
  malloc_skel("proj_out", sz.unit);
  e.Free(p + "ws_proj");
  e.Malloc(p + "resid1", sz.unit, false);
  malloc_skel("ln2_out", sz.unit);
  malloc_skel("ln2_rstd", sz.rstd);
  if (sz.tp > 1) e.Malloc(p + "ln2_gathered", sz.gathered, false);
  e.Malloc(p + "ws_fc1", sz.workspace, false);
  malloc_skel("fc1_out", sz.ffn);
  e.Free(p + "ws_fc1");
  if (sz.tp > 1) e.Free(p + "ln2_gathered");
  malloc_skel("gelu_out", sz.ffn);
  e.Malloc(p + "ws_fc2", sz.workspace, false);
  e.Malloc(p + "fc2_out", sz.unit, false);
  e.Free(p + "ws_fc2");
  if (!replay) {
    // The layer output survives into the next segment in every mode except
    // MEMO, where it lives in a rounding buffer.
    if (mode != ActivationMode::kMemoBuffers) {
      e.Malloc(p + "out", sz.unit, true);
    }
  }
  e.Free(p + "fc2_out");
  e.Free(p + "resid1");

  if (mode == ActivationMode::kFullRecompute && !replay) {
    // Vanilla full recomputation: discard everything but the input before
    // the next layer's forward begins.
    for (const char* name : kLayerSkeletalNames) {
      if (e.IsLive(p + name)) e.Free(p + name);
    }
  }
}

/// Emits a transformer layer's backward computation. Assumes the gradient
/// w.r.t. the layer output, named `dout_name`, is live; produces the gradient
/// w.r.t. the layer input as `p + "d_in"` and frees `dout_name`, the layer
/// input `in_name`, and the skeletal tensors as they are consumed.
void EmitLayerBackward(TraceEmitter& e, const std::string& p, const Sizes& sz,
                       const TraceGenOptions& options,
                       const std::string& in_name,
                       const std::string& dout_name) {
  const ActivationMode mode = options.mode;
  if (mode == ActivationMode::kFullRecompute) {
    EmitLayerForward(e, p, sz, options, /*replay=*/true);
  }
  const bool have_skeletal = mode != ActivationMode::kMemoBuffers;
  auto free_skel = [&](const std::string& name) {
    if (have_skeletal && e.IsLive(p + name)) e.Free(p + name);
  };

  // FFN backward.
  e.Malloc(p + "resid1_r", sz.unit, false);  // recomputed input + proj_out
  e.Malloc(p + "ws_dfc2", sz.workspace, false);
  e.Malloc(p + "d_gelu", sz.ffn, false);
  e.Free(p + "ws_dfc2");
  e.Malloc(p + "ws_wfc2", sz.workspace, false);
  e.Free(p + "ws_wfc2");
  e.Malloc(p + "d_fc1", sz.ffn, false);
  free_skel("gelu_out");
  e.Free(p + "d_gelu");
  // fc1 backward re-gathers its forward input and produces the gradient of
  // the gathered tensor before reduce-scattering it back to shards.
  if (sz.tp > 1) e.Malloc(p + "ln2_gathered_r", sz.gathered, false);
  e.Malloc(p + "ws_dfc1", sz.workspace, false);
  if (sz.tp > 1) e.Malloc(p + "d_ln2_gathered", sz.gathered, false);
  e.Malloc(p + "d_ln2out", sz.unit, false);
  e.Free(p + "ws_dfc1");
  e.Malloc(p + "ws_wfc1", sz.workspace, false);
  e.Free(p + "ws_wfc1");
  if (sz.tp > 1) {
    e.Free(p + "d_ln2_gathered");
    e.Free(p + "ln2_gathered_r");
  }
  free_skel("fc1_out");
  e.Free(p + "d_fc1");
  e.Malloc(p + "d_resid1", sz.unit, false);
  free_skel("ln2_out");
  free_skel("ln2_rstd");
  e.Free(p + "d_ln2out");
  e.Free(p + "resid1_r");

  // Attention backward.
  e.Malloc(p + "ws_dproj", sz.workspace, false);
  e.Malloc(p + "d_attnout", sz.unit, false);
  e.Free(p + "ws_dproj");
  e.Malloc(p + "ws_wproj", sz.workspace, false);
  e.Free(p + "ws_wproj");
  free_skel("proj_out");
  e.Malloc(p + "flash_ws", sz.unit, false);
  e.Malloc(p + "dq", sz.unit, false);
  e.Malloc(p + "dk", sz.kv, false);
  e.Malloc(p + "dv", sz.kv, false);
  e.Free(p + "flash_ws");
  free_skel("attn_out");
  free_skel("lse");
  e.Free(p + "d_attnout");
  e.Malloc(p + "d_qkv", sz.unit + 2 * sz.kv, false);
  e.Free(p + "dq");
  e.Free(p + "dk");
  e.Free(p + "dv");
  free_skel("q");
  free_skel("k");
  free_skel("v");
  if (sz.tp > 1) e.Malloc(p + "ln1_gathered_r", sz.gathered, false);
  e.Malloc(p + "ws_dqkv", sz.workspace, false);
  if (sz.tp > 1) e.Malloc(p + "d_ln1_gathered", sz.gathered, false);
  e.Malloc(p + "d_ln1out", sz.unit, false);
  e.Free(p + "ws_dqkv");
  e.Malloc(p + "ws_wqkv", sz.workspace, false);
  e.Free(p + "ws_wqkv");
  if (sz.tp > 1) {
    e.Free(p + "d_ln1_gathered");
    e.Free(p + "ln1_gathered_r");
  }
  e.Free(p + "d_qkv");

  // Gradient w.r.t. the layer input (residual + ln1 backward).
  e.Malloc(p + "d_in", sz.unit, false);
  free_skel("ln1_out");
  free_skel("ln1_rstd");
  e.Free(p + "d_ln1out");
  e.Free(p + "d_resid1");
  e.Free(dout_name);
  if (e.IsLive(in_name)) e.Free(in_name);
}

void EmitClassifierForward(TraceEmitter& e, const Sizes& sz,
                           const TraceGenOptions& options,
                           const std::string& in_name, bool skeletal_tagged) {
  (void)in_name;
  e.Malloc("cls.ln_out", sz.unit, skeletal_tagged);
  e.Malloc("cls.ln_rstd", sz.rstd, skeletal_tagged);
  for (int c = 0; c < options.classifier_chunks; ++c) {
    const std::string cp = "cls.c" + std::to_string(c) + ".";
    e.Malloc(cp + "ws", sz.workspace, false);
    e.Malloc(cp + "logits", sz.logits_chunk, false);
    e.Free(cp + "ws");
    // Cross entropy exponentiates in fp32: a softmax buffer twice the fp16
    // logits' size. With chunking (Megatron-style) this stays modest; an
    // unchunked classifier (classifier_chunks = 1, the DeepSpeed path)
    // materializes it for the whole local sequence at once.
    e.Malloc(cp + "softmax_fp32", 2 * sz.logits_chunk, false);
    e.Malloc(cp + "lse", sz.rstd, false);
    e.Malloc(cp + "loss", sz.rstd, false);
    // Logits are discarded and recomputed during backward (chunked
    // vocab-parallel cross entropy); per-chunk loss pieces stay for bwd.
    e.Free(cp + "softmax_fp32");
    e.Free(cp + "logits");
    e.Free(cp + "lse");
  }
}

void EmitClassifierBackward(TraceEmitter& e, const Sizes& sz,
                            const TraceGenOptions& options,
                            const std::string& d_in_name) {
  e.Malloc("cls.d_lnout", sz.unit, false);
  for (int c = 0; c < options.classifier_chunks; ++c) {
    const std::string cp = "cls.c" + std::to_string(c) + ".";
    e.Malloc(cp + "ws2", sz.workspace, false);
    e.Malloc(cp + "logits_r", sz.logits_chunk, false);
    e.Free(cp + "ws2");
    e.Malloc(cp + "softmax_fp32_r", 2 * sz.logits_chunk, false);
    e.Malloc(cp + "d_logits", sz.logits_chunk, false);
    e.Free(cp + "softmax_fp32_r");
    e.Free(cp + "logits_r");
    e.Malloc(cp + "ws3", sz.workspace, false);
    e.Free(cp + "ws3");
    e.Free(cp + "d_logits");
    e.Free(cp + "loss");
  }
  e.Malloc(d_in_name, sz.unit, false);
  e.Free("cls.ln_out");
  e.Free("cls.ln_rstd");
  e.Free("cls.d_lnout");
}

}  // namespace

std::int64_t ModelTrace::MaxLiveBytes() const {
  std::int64_t live = 0;
  std::int64_t max_live = 0;
  for (const MemoryRequest& r : requests) {
    if (r.kind == MemoryRequest::Kind::kMalloc) {
      live += r.bytes;
      max_live = std::max(max_live, live);
    } else {
      live -= r.bytes;
    }
  }
  return max_live;
}

Status ModelTrace::Validate() const {
  std::unordered_map<std::int64_t, std::int64_t> live;  // id -> bytes
  for (const MemoryRequest& r : requests) {
    if (r.kind == MemoryRequest::Kind::kMalloc) {
      if (r.bytes <= 0) {
        return InvalidArgumentError("malloc of non-positive size: " + r.name);
      }
      if (!live.emplace(r.tensor_id, r.bytes).second) {
        return InvalidArgumentError("double malloc of tensor " + r.name);
      }
    } else {
      auto it = live.find(r.tensor_id);
      if (it == live.end()) {
        return InvalidArgumentError("free of dead tensor " + r.name);
      }
      if (it->second != r.bytes) {
        return InvalidArgumentError("free size mismatch for " + r.name);
      }
      live.erase(it);
    }
  }
  return OkStatus();
}

ModelTrace GenerateModelTrace(const ModelConfig& config,
                              const TraceGenOptions& options) {
  MEMO_CHECK_OK(config.Validate());
  MEMO_CHECK_GT(options.seq_local, 0);
  const Sizes sz = ComputeSizes(config, options);
  ModelTrace trace;
  TraceEmitter e(&trace);
  const bool memo = options.mode == ActivationMode::kMemoBuffers;
  const int n = config.num_layers;
  if (!options.layer_ffn_scale.empty()) {
    MEMO_CHECK_EQ(options.layer_ffn_scale.size(),
                  static_cast<std::size_t>(n));
  }
  auto layer_sizes = [&](int i) {
    Sizes scaled = sz;
    if (!options.layer_ffn_scale.empty()) {
      scaled.ffn = std::max<std::int64_t>(
          static_cast<std::int64_t>(static_cast<double>(sz.ffn) *
                                    options.layer_ffn_scale[i]),
          ModelConfig::kBytesPerElement);
    }
    return scaled;
  };

  auto layer_prefix = [](int i) { return "L" + std::to_string(i) + "."; };
  auto layer_out_name = [&](int i) {
    return i < 0 ? std::string("emb.out") : layer_prefix(i) + "out";
  };

  e.BeginSegment("embedding_fwd", -1);
  if (!memo) e.Malloc("emb.out", sz.unit, true);
  e.EndSegment();

  for (int i = 0; i < n; ++i) {
    e.BeginSegment("layer_fwd", i);
    EmitLayerForward(e, layer_prefix(i), layer_sizes(i), options,
                     /*replay=*/false);
    e.EndSegment();
  }

  e.BeginSegment("classifier_fwd", -1);
  EmitClassifierForward(e, sz, options, layer_out_name(n - 1),
                        /*skeletal_tagged=*/true);
  e.EndSegment();

  e.BeginSegment("classifier_bwd", -1);
  // In MEMO mode the last layer's output is in a rounding buffer; the
  // incoming gradient tensor is still a planner-visible transient.
  EmitClassifierBackward(e, sz, options, "d." + layer_out_name(n - 1));
  if (!memo && e.IsLive(layer_out_name(n - 1))) {
    // The classifier consumed the last layer's output (final LN backward).
    e.Free(layer_out_name(n - 1));
  }
  e.EndSegment();

  for (int i = n - 1; i >= 0; --i) {
    e.BeginSegment("layer_bwd", i);
    const std::string in_name = memo ? "" : layer_out_name(i - 1);
    EmitLayerBackward(e, layer_prefix(i), layer_sizes(i), options,
                      in_name.empty() ? layer_prefix(i) + "no_input" : in_name,
                      "d." + layer_out_name(i));
    e.EndSegment();
    // The produced input-gradient is the gradient w.r.t. the previous
    // layer's output; the next backward segment consumes it by that name.
    e.Rename(layer_prefix(i) + "d_in", "d." + layer_out_name(i - 1));
  }

  e.BeginSegment("embedding_bwd", -1);
  e.Malloc("emb.ws", sz.workspace, false);
  e.Free("emb.ws");
  e.Free("d.emb.out");
  e.EndSegment();

  MEMO_CHECK_OK(trace.Validate());
  return trace;
}

std::vector<MemoryRequest> GenerateLayerForwardTrace(
    const ModelConfig& config, const TraceGenOptions& options) {
  ModelConfig small = config;
  small.num_layers = 3;
  const ModelTrace trace = GenerateModelTrace(small, options);
  for (const TraceSegment& seg : trace.segments) {
    if (seg.name == "layer_fwd" && seg.layer == 1) {
      return {trace.requests.begin() + seg.begin,
              trace.requests.begin() + seg.end};
    }
  }
  MEMO_LOG(Fatal) << "layer_fwd segment not found";
  return {};
}

std::vector<MemoryRequest> GenerateLayerBackwardTrace(
    const ModelConfig& config, const TraceGenOptions& options) {
  ModelConfig small = config;
  small.num_layers = 3;
  const ModelTrace trace = GenerateModelTrace(small, options);
  for (const TraceSegment& seg : trace.segments) {
    if (seg.name == "layer_bwd" && seg.layer == 1) {
      return {trace.requests.begin() + seg.begin,
              trace.requests.begin() + seg.end};
    }
  }
  MEMO_LOG(Fatal) << "layer_bwd segment not found";
  return {};
}

std::size_t WorkloadTrace::TotalRequests() const {
  std::size_t total = 0;
  for (const ModelTrace& it : iterations) total += it.requests.size();
  return total;
}

Status WorkloadTrace::CheckLiveBytes() const {
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    std::int64_t live = 0;
    for (const MemoryRequest& r : iterations[i].requests) {
      const bool overflow =
          r.kind == MemoryRequest::Kind::kMalloc
              ? __builtin_add_overflow(live, r.bytes, &live)
              : __builtin_sub_overflow(live, r.bytes, &live);
      if (overflow || live > kMaxLiveBytes || r.bytes > kMaxLiveBytes) {
        return InvalidArgumentError("trace iteration " + std::to_string(i) +
                                    " holds more than 2^62 live bytes");
      }
    }
  }
  return OkStatus();
}

namespace {

/// Rounds a drawn sequence length to the generator grid so chunked
/// classifier sizes divide exactly; never rounds below one grid step.
std::int64_t RoundSeq(std::int64_t seq, const TraceGenOptions& base) {
  const std::int64_t grid =
      static_cast<std::int64_t>(base.classifier_chunks) * 16;
  return std::max<std::int64_t>(seq / grid, 1) * grid;
}

}  // namespace

WorkloadTrace GenerateVariableLengthWorkload(
    const ModelConfig& config, const TraceGenOptions& base,
    const WorkloadGenOptions& options) {
  MEMO_CHECK_GT(options.iterations, 0);
  MEMO_CHECK_LE(options.seq_local_min, options.seq_local_max);
  Rng rng(options.seed);
  WorkloadTrace workload;
  workload.iterations.reserve(options.iterations);
  for (int i = 0; i < options.iterations; ++i) {
    TraceGenOptions iter = base;
    iter.seq_local = RoundSeq(
        rng.NextInRange(options.seq_local_min, options.seq_local_max), base);
    workload.iterations.push_back(GenerateModelTrace(config, iter));
  }
  return workload;
}

WorkloadTrace GenerateMoeWorkload(const ModelConfig& config,
                                  const TraceGenOptions& base,
                                  const WorkloadGenOptions& options) {
  MEMO_CHECK_GT(options.iterations, 0);
  MEMO_CHECK_GT(base.seq_local, 0)
      << "MoE workload keeps base.seq_local fixed; set it";
  Rng rng(options.seed);
  WorkloadTrace workload;
  workload.iterations.reserve(options.iterations);
  for (int i = 0; i < options.iterations; ++i) {
    TraceGenOptions iter = base;
    iter.layer_ffn_scale.resize(config.num_layers);
    for (double& scale : iter.layer_ffn_scale) {
      scale = std::max(
          0.25, 1.0 + options.moe_spread * (2.0 * rng.NextDouble() - 1.0));
    }
    workload.iterations.push_back(GenerateModelTrace(config, iter));
  }
  return workload;
}

WorkloadTrace GenerateDiurnalWorkload(const ModelConfig& config,
                                      const TraceGenOptions& base,
                                      const WorkloadGenOptions& options) {
  MEMO_CHECK_GT(options.iterations, 0);
  MEMO_CHECK_LE(options.seq_local_min, options.seq_local_max);
  Rng rng(options.seed);
  WorkloadTrace workload;
  workload.iterations.reserve(options.iterations);
  const double span = static_cast<double>(options.seq_local_max -
                                          options.seq_local_min);
  for (int i = 0; i < options.iterations; ++i) {
    // Triangle wave over the workload: 0 -> 1 -> 0.
    const double t =
        options.iterations > 1
            ? static_cast<double>(i) / (options.iterations - 1)
            : 0.0;
    const double ramp = 1.0 - std::abs(2.0 * t - 1.0);
    const double jitter = 1.0 + 0.05 * (2.0 * rng.NextDouble() - 1.0);
    TraceGenOptions iter = base;
    iter.seq_local = RoundSeq(
        options.seq_local_min +
            static_cast<std::int64_t>(span * ramp * jitter),
        base);
    workload.iterations.push_back(GenerateModelTrace(config, iter));
  }
  return workload;
}

std::string FormatTrace(const std::vector<MemoryRequest>& requests) {
  TablePrinter table({"index", "instruction", "tensor_id", "size", "class",
                      "name"});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const MemoryRequest& r = requests[i];
    table.AddRow({std::to_string(i),
                  r.kind == MemoryRequest::Kind::kMalloc ? "malloc" : "free",
                  std::to_string(r.tensor_id), FormatBytes(r.bytes),
                  r.skeletal ? "skeletal" : "transient", r.name});
  }
  return table.ToString();
}

}  // namespace memo::model
