#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/units.h"
#include "model/trace_gen.h"

namespace memo::model {
namespace {

TraceGenOptions SmallOptions(ActivationMode mode) {
  TraceGenOptions options;
  options.seq_local = 8 * kSeqK;
  options.tensor_parallel = 2;
  options.mode = mode;
  return options;
}

ModelConfig SmallModel() {
  ModelConfig m = Gpt7B();
  m.num_layers = 4;
  return m;
}

TEST(TraceGenTest, ModelTraceValidatesInAllModes) {
  for (ActivationMode mode :
       {ActivationMode::kRetainAll, ActivationMode::kFullRecompute,
        ActivationMode::kMemoBuffers}) {
    const ModelTrace trace = GenerateModelTrace(SmallModel(), SmallOptions(mode));
    EXPECT_TRUE(trace.Validate().ok());
    EXPECT_GT(trace.requests.size(), 0u);
  }
}

TEST(TraceGenTest, ShardsNarrowerThanAnElementStillAllocateOne) {
  // A TP group wider than a tensor's bytes (one token, 8B-GQA's 4096-wide
  // hidden split 4096 ways leaves a K shard of half an element) shards
  // every tensor down to one element instead of a zero-byte malloc.
  for (ActivationMode mode :
       {ActivationMode::kRetainAll, ActivationMode::kFullRecompute,
        ActivationMode::kMemoBuffers}) {
    TraceGenOptions options = SmallOptions(mode);
    options.seq_local = 1;
    options.tensor_parallel = 4096;
    const ModelTrace trace = GenerateModelTrace(Llama8BGqa(), options);
    EXPECT_TRUE(trace.Validate().ok());
    for (const MemoryRequest& r : trace.requests) {
      EXPECT_GE(r.bytes, ModelConfig::kBytesPerElement) << r.name;
    }
  }
}

TEST(TraceGenTest, EveryMallocHasAMatchingFree) {
  const ModelTrace trace =
      GenerateModelTrace(SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  std::set<std::int64_t> live;
  for (const MemoryRequest& r : trace.requests) {
    if (r.kind == MemoryRequest::Kind::kMalloc) {
      EXPECT_TRUE(live.insert(r.tensor_id).second) << r.name;
    } else {
      EXPECT_EQ(live.erase(r.tensor_id), 1u) << r.name;
    }
  }
  EXPECT_TRUE(live.empty()) << live.size() << " tensors leaked";
}

TEST(TraceGenTest, SegmentsCoverWholeTraceInOrder) {
  const ModelConfig m = SmallModel();
  const ModelTrace trace =
      GenerateModelTrace(m, SmallOptions(ActivationMode::kRetainAll));
  ASSERT_FALSE(trace.segments.empty());
  EXPECT_EQ(trace.segments.front().name, "embedding_fwd");
  EXPECT_EQ(trace.segments.back().name, "embedding_bwd");
  int cursor = 0;
  int layer_fwd = 0;
  int layer_bwd = 0;
  for (const TraceSegment& seg : trace.segments) {
    EXPECT_EQ(seg.begin, cursor) << seg.name;
    EXPECT_GE(seg.end, seg.begin);
    cursor = seg.end;
    if (seg.name == "layer_fwd") ++layer_fwd;
    if (seg.name == "layer_bwd") ++layer_bwd;
  }
  EXPECT_EQ(cursor, static_cast<int>(trace.requests.size()));
  EXPECT_EQ(layer_fwd, m.num_layers);
  EXPECT_EQ(layer_bwd, m.num_layers);
}

TEST(TraceGenTest, TransformerLayersHaveIdenticalRequestShapes) {
  // §3.3 / §4.2: all transformer layers issue the same request sequence
  // (sizes and malloc/free pattern), the property the bi-level MIP exploits.
  const ModelTrace trace =
      GenerateModelTrace(SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  std::vector<std::vector<std::pair<int, std::int64_t>>> shapes;
  for (const TraceSegment& seg : trace.segments) {
    if (seg.name != "layer_fwd") continue;
    std::vector<std::pair<int, std::int64_t>> shape;
    for (int i = seg.begin; i < seg.end; ++i) {
      const MemoryRequest& r = trace.requests[i];
      shape.emplace_back(static_cast<int>(r.kind), r.bytes);
    }
    shapes.push_back(std::move(shape));
  }
  ASSERT_GE(shapes.size(), 2u);
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_EQ(shapes[i], shapes[0]) << "layer " << i;
  }
}

TEST(TraceGenTest, RetainAllKeepsSkeletalLiveAcrossForward) {
  const ModelTrace trace =
      GenerateModelTrace(SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  // Peak live memory must be at least the full skeletal footprint:
  // 16 s*h*2/tp bytes per layer times layers (batch 1).
  const TraceGenOptions options = SmallOptions(ActivationMode::kRetainAll);
  const std::int64_t unit =
      options.seq_local * SmallModel().hidden * 2 / options.tensor_parallel;
  EXPECT_GE(trace.MaxLiveBytes(), 16 * unit * SmallModel().num_layers);
}

TEST(TraceGenTest, FullRecomputeForwardPeakIsMuchSmaller) {
  const ModelTrace retain =
      GenerateModelTrace(SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  const ModelTrace recompute = GenerateModelTrace(
      SmallModel(), SmallOptions(ActivationMode::kFullRecompute));
  EXPECT_LT(recompute.MaxLiveBytes(), retain.MaxLiveBytes() / 2);
}

TEST(TraceGenTest, MemoModeLayersContainNoSkeletalRequests) {
  // In MEMO mode every transformer layer's skeletal tensor lives in a
  // rounding buffer, so layer segments issue only transient requests. The
  // classifier's final-LN output (consumed by the immediately following
  // classifier backward) legitimately stays in the dynamic allocator.
  const ModelTrace trace = GenerateModelTrace(
      SmallModel(), SmallOptions(ActivationMode::kMemoBuffers));
  for (const TraceSegment& seg : trace.segments) {
    if (seg.name != "layer_fwd" && seg.name != "layer_bwd") continue;
    for (int i = seg.begin; i < seg.end; ++i) {
      EXPECT_FALSE(trace.requests[i].skeletal) << trace.requests[i].name;
    }
  }
}

TEST(TraceGenTest, MemoModePeakBelowFullRecompute) {
  // With skeletal tensors lifted into rounding buffers the dynamic-allocator
  // peak is strictly smaller than full recomputation's.
  const ModelTrace memo = GenerateModelTrace(
      SmallModel(), SmallOptions(ActivationMode::kMemoBuffers));
  const ModelTrace recompute = GenerateModelTrace(
      SmallModel(), SmallOptions(ActivationMode::kFullRecompute));
  EXPECT_LT(memo.MaxLiveBytes(), recompute.MaxLiveBytes());
}

TEST(TraceGenTest, TransientsOutnumberSkeletals) {
  // §3.3: transient activations outnumber skeletal ones.
  const ModelTrace trace =
      GenerateModelTrace(SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  int skeletal = 0;
  int transient = 0;
  for (const MemoryRequest& r : trace.requests) {
    if (r.kind != MemoryRequest::Kind::kMalloc) continue;
    (r.skeletal ? skeletal : transient)++;
  }
  EXPECT_GT(transient, 2 * skeletal);
}

TEST(TraceGenTest, LayerTracesMatchModelSegments) {
  const auto fwd = GenerateLayerForwardTrace(SmallModel(),
                                             SmallOptions(ActivationMode::kRetainAll));
  const auto bwd = GenerateLayerBackwardTrace(
      SmallModel(), SmallOptions(ActivationMode::kRetainAll));
  EXPECT_FALSE(fwd.empty());
  EXPECT_FALSE(bwd.empty());
  // Forward allocates skeletal tensors; backward frees them.
  const auto count_skel = [](const std::vector<MemoryRequest>& v,
                             MemoryRequest::Kind kind) {
    int n = 0;
    for (const auto& r : v) {
      if (r.skeletal && r.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_GT(count_skel(fwd, MemoryRequest::Kind::kMalloc), 0);
  EXPECT_GT(count_skel(bwd, MemoryRequest::Kind::kFree), 0);
}

TEST(TraceGenTest, RecomputeReplayReallocatesSkeletalsInBackward) {
  const auto bwd = GenerateLayerBackwardTrace(
      SmallModel(), SmallOptions(ActivationMode::kFullRecompute));
  int skeletal_mallocs = 0;
  for (const auto& r : bwd) {
    if (r.skeletal && r.kind == MemoryRequest::Kind::kMalloc) {
      ++skeletal_mallocs;
    }
  }
  EXPECT_GT(skeletal_mallocs, 5);
}

TEST(TraceGenTest, FormatTraceRendersFig4Columns) {
  const auto fwd = GenerateLayerForwardTrace(SmallModel(),
                                             SmallOptions(ActivationMode::kRetainAll));
  const std::string text = FormatTrace(fwd);
  EXPECT_NE(text.find("instruction"), std::string::npos);
  EXPECT_NE(text.find("malloc"), std::string::npos);
  EXPECT_NE(text.find("free"), std::string::npos);
  EXPECT_NE(text.find("skeletal"), std::string::npos);
}

TEST(TraceGenTest, MaxLiveScalesWithSequenceLength) {
  TraceGenOptions small = SmallOptions(ActivationMode::kRetainAll);
  TraceGenOptions big = small;
  big.seq_local = 2 * small.seq_local;
  const auto trace_small = GenerateModelTrace(SmallModel(), small);
  const auto trace_big = GenerateModelTrace(SmallModel(), big);
  // Workspaces are size-independent, so scaling is slightly sublinear of 2x.
  EXPECT_GT(trace_big.MaxLiveBytes(), trace_small.MaxLiveBytes() * 3 / 2);
}

}  // namespace
}  // namespace memo::model
