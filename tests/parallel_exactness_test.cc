#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "model/activation_spec.h"
#include "model/trace_gen.h"
#include "obs/trace_recorder.h"
#include "planner/bilevel_planner.h"
#include "train/mini_gpt.h"
#include "train/ops.h"
#include "train/reference_ops.h"
#include "train/trainer.h"

namespace memo::train {
namespace {

/// Pins the global pool size and kernel mode for one scope, restoring the
/// optimized single-thread configuration on exit so tests stay independent.
/// The SIMD dispatch is pinned to scalar by default: bit-exactness against
/// the reference kernels is the scalar table's contract (the vectorized
/// tables are tolerance-checked in simd_kernels_test instead), and these
/// tests are about thread chunking, which is orthogonal to lane width.
class ScopedRuntime {
 public:
  ScopedRuntime(int threads, KernelMode mode,
                SimdLevel simd = SimdLevel::kScalar)
      : simd_(simd) {
    ThreadPool::SetGlobalThreads(threads);
    SetKernelMode(mode);
  }
  ~ScopedRuntime() {
    ThreadPool::SetGlobalThreads(1);
    SetKernelMode(KernelMode::kOptimized);
  }

 private:
  ScopedSimdLevel simd_;
};

Tensor RandomTensor(std::int64_t rows, std::int64_t cols, Rng& rng) {
  return Tensor::Randn(rows, cols, 0.7, rng);
}

// ---- Per-op bit-exactness: optimized kernels (at 4 threads) against the
// preserved naive reference kernels.

// Linear shapes [rows x in] . [in x out]. 1000 x 200 x 70 is ragged
// wherever the op splits work: each packed operand — W (k 200, n 70), W^T
// (k 70, n 200) and dy (k 1000, n 70) — ends in a short 128-row pack block
// and a short 64-column panel, and the 1000 rows in a short 32-row GEMM
// block.
struct LinearShape {
  std::int64_t rows, in, out;
};
constexpr LinearShape kRaggedLinear{1000, 200, 70};
const int kPoolSizes[] = {1, 2, 3, 4};

struct LinearTensors {
  Tensor y, dx, dw, db;
};

struct LinearInputs {
  explicit LinearInputs(const LinearShape& shape) {
    Rng rng(2);
    x = RandomTensor(shape.rows, shape.in, rng);
    w = RandomTensor(shape.in, shape.out, rng);
    b = RandomTensor(1, shape.out, rng);
    dy = RandomTensor(shape.rows, shape.out, rng);
  }
  /// The forward, or the whole backward (dx written, dw and db accumulated
  /// from zero), through the dispatched ops.
  LinearTensors Forward() const {
    LinearTensors t;
    t.y = Tensor(x.rows(), w.cols());
    LinearForward(x, w, b, &t.y);
    return t;
  }
  LinearTensors Backward() const {
    LinearTensors t{Tensor(), Tensor(x.rows(), x.cols()),
                    Tensor(w.rows(), w.cols()), Tensor(1, w.cols())};
    LinearBackward(x, w, dy, &t.dx, &t.dw, &t.db);
    return t;
  }
  Tensor x, w, b, dy;
};

void ExpectSameLinear(const LinearTensors& actual,
                      const LinearTensors& expected) {
  EXPECT_TRUE(actual.y.ExactlyEquals(expected.y));
  EXPECT_TRUE(actual.dx.ExactlyEquals(expected.dx));
  EXPECT_TRUE(actual.dw.ExactlyEquals(expected.dw));
  EXPECT_TRUE(actual.db.ExactlyEquals(expected.db));
}

/// At the scalar tier every pool size must give the naive reference's bits.
void ExpectLinearBitExact(const LinearShape& shape, bool backward) {
  SCOPED_TRACE(::testing::Message()
               << shape.rows << " x " << shape.in << " x " << shape.out);
  const LinearInputs in(shape);
  LinearTensors expected;
  {
    ScopedRuntime rt(1, KernelMode::kReference);
    expected = backward ? in.Backward() : in.Forward();
  }
  for (int threads : kPoolSizes) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ScopedRuntime rt(threads, KernelMode::kOptimized);
    ExpectSameLinear(backward ? in.Backward() : in.Forward(), expected);
  }
}

TEST(ParallelExactnessTest, LinearForwardBitExact) {
  for (const LinearShape& shape : {LinearShape{37, 24, 41}, kRaggedLinear}) {
    ExpectLinearBitExact(shape, /*backward=*/false);
  }
}

TEST(ParallelExactnessTest, LinearBackwardGradientsBitExact) {
  // Covers the 2-D dw partition: (32-row block x 64-column panel) work
  // items must reproduce the naive row(i)-sweep gradients bit for bit. The
  // 128 x 512 weight spans 4 x 8 tiles, and its 300 sample rows cross the
  // 128-row dw contraction block twice; 32 x 29 is one partial tile.
  for (const LinearShape& shape :
       {LinearShape{53, 32, 29}, LinearShape{300, 128, 512}, kRaggedLinear}) {
    ExpectLinearBitExact(shape, /*backward=*/true);
  }
}

TEST(ParallelExactnessTest, SimdLinearSameBitsAtEveryPoolSize) {
  // The vectorized tiers fuse the multiply-adds, so they differ from the
  // reference in the last ulp — but the pooled packing and GEMMs must
  // still give every pool size the same bits.
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > CpuSimdLevel()) continue;
    SCOPED_TRACE(SimdLevelName(level));
    const LinearInputs in(kRaggedLinear);
    ScopedRuntime rt(1, KernelMode::kOptimized, level);
    const LinearTensors forward = in.Forward();
    const LinearTensors backward = in.Backward();
    for (int threads : kPoolSizes) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      ThreadPool::SetGlobalThreads(threads);
      ExpectSameLinear(in.Forward(), forward);
      ExpectSameLinear(in.Backward(), backward);
    }
  }
}

TEST(ParallelExactnessTest, LayerNormBitExact) {
  Rng rng(3);
  const Tensor x = RandomTensor(45, 32, rng);
  const Tensor g = RandomTensor(1, 32, rng);
  const Tensor b = RandomTensor(1, 32, rng);
  const Tensor dy = RandomTensor(45, 32, rng);
  Tensor y_ref(45, 32), rstd_ref(45, 1);
  reference::LayerNormForward(x, g, b, &y_ref, &rstd_ref);
  Tensor dx_ref(45, 32), dg_ref(1, 32), db_ref(1, 32);
  reference::LayerNormBackward(x, g, rstd_ref, dy, &dx_ref, &dg_ref, &db_ref);

  ScopedRuntime rt(4, KernelMode::kOptimized);
  Tensor y(45, 32), rstd(45, 1);
  LayerNormForward(x, g, b, &y, &rstd);
  EXPECT_TRUE(y.ExactlyEquals(y_ref));
  EXPECT_TRUE(rstd.ExactlyEquals(rstd_ref));
  Tensor dx(45, 32), dg(1, 32), db(1, 32);
  LayerNormBackward(x, g, rstd, dy, &dx, &dg, &db);
  EXPECT_TRUE(dx.ExactlyEquals(dx_ref));
  EXPECT_TRUE(dg.ExactlyEquals(dg_ref));
  EXPECT_TRUE(db.ExactlyEquals(db_ref));
}

TEST(ParallelExactnessTest, GeluBitExact) {
  Rng rng(4);
  const Tensor x = RandomTensor(40, 33, rng);
  const Tensor dy = RandomTensor(40, 33, rng);
  Tensor y_ref(40, 33), dx_ref(40, 33);
  reference::GeluForward(x, &y_ref);
  reference::GeluBackward(x, dy, &dx_ref);
  ScopedRuntime rt(4, KernelMode::kOptimized);
  Tensor y(40, 33), dx(40, 33);
  GeluForward(x, &y);
  GeluBackward(x, dy, &dx);
  EXPECT_TRUE(y.ExactlyEquals(y_ref));
  EXPECT_TRUE(dx.ExactlyEquals(dx_ref));
}

// ---- Attention across key-block boundaries: s = 1 (a lone row), 64 (one
// whole 64-key block), 65 (one key spilling into a second block), 200 and
// 300 (partial last blocks at different row-tile phases), at head dims 8 and
// 16, on pool sizes 1 to 4.

struct AttentionCase {
  std::int64_t seq;
  std::int64_t head_dim;
};

std::vector<AttentionCase> AttentionCases() {
  std::vector<AttentionCase> cases;
  for (std::int64_t seq : {1, 64, 65, 200, 300}) {
    for (std::int64_t head_dim : {8, 16}) cases.push_back({seq, head_dim});
  }
  return cases;
}

constexpr int kAttentionHeads = 4;

struct AttentionTensors {
  Tensor out, lse, dq, dk, dv;
};

struct AttentionInputs {
  Tensor q, k, v, dout;

  explicit AttentionInputs(const AttentionCase& c) {
    Rng rng(static_cast<std::uint64_t>(5 + 1000 * c.seq + c.head_dim));
    const std::int64_t h = kAttentionHeads * c.head_dim;
    q = RandomTensor(c.seq, h, rng);
    k = RandomTensor(c.seq, h, rng);
    v = RandomTensor(c.seq, h, rng);
    dout = RandomTensor(c.seq, h, rng);
  }

  AttentionTensors Empty() const {
    return {Tensor(q.rows(), q.cols()), Tensor(q.rows(), kAttentionHeads),
            Tensor(q.rows(), q.cols()), Tensor(q.rows(), q.cols()),
            Tensor(q.rows(), q.cols())};
  }

  AttentionTensors Reference() const {
    AttentionTensors r = Empty();
    reference::AttentionForward(q, k, v, kAttentionHeads, &r.out, &r.lse);
    reference::AttentionBackward(q, k, v, kAttentionHeads, dout, &r.dq, &r.dk,
                                 &r.dv);
    return r;
  }

  /// The forward, then the backward from its saved out and lse (the
  /// trainer's calls) or, with `!saved`, the form that reruns the forward.
  AttentionTensors Optimized(bool saved = true) const {
    AttentionTensors r = Empty();
    AttentionForward(q, k, v, kAttentionHeads, &r.out, &r.lse);
    if (saved) {
      AttentionBackward(q, k, v, kAttentionHeads, r.out, r.lse, dout, &r.dq,
                        &r.dk, &r.dv);
    } else {
      AttentionBackward(q, k, v, kAttentionHeads, dout, &r.dq, &r.dk, &r.dv);
    }
    return r;
  }
};

void ExpectSameAttention(const AttentionTensors& a,
                         const AttentionTensors& b) {
  EXPECT_TRUE(a.out.ExactlyEquals(b.out)) << "out";
  EXPECT_TRUE(a.lse.ExactlyEquals(b.lse)) << "lse";
  EXPECT_TRUE(a.dq.ExactlyEquals(b.dq)) << "dq";
  EXPECT_TRUE(a.dk.ExactlyEquals(b.dk)) << "dk";
  EXPECT_TRUE(a.dv.ExactlyEquals(b.dv)) << "dv";
}

/// max |a - b| / max |b| over the tensor: the error relative to the
/// tensor's scale, so near-zero gradient entries do not dominate.
double RelativeError(const Tensor& a, const Tensor& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(static_cast<double>(a.data()[i]) -
                                   static_cast<double>(b.data()[i])));
    scale = std::max(scale, std::abs(static_cast<double>(b.data()[i])));
  }
  return scale > 0.0 ? diff / scale : diff;
}

TEST(ParallelExactnessTest, AttentionBitExact) {
  for (const AttentionCase& c : AttentionCases()) {
    SCOPED_TRACE(::testing::Message()
                 << "seq " << c.seq << " head_dim " << c.head_dim);
    const AttentionInputs in(c);
    const AttentionTensors expected = in.Reference();
    for (int threads : kPoolSizes) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      ScopedRuntime rt(threads, KernelMode::kOptimized);
      ExpectSameAttention(in.Optimized(), expected);
      ExpectSameAttention(in.Optimized(/*saved=*/false), expected);
    }
  }
}

TEST(ParallelExactnessTest, SimdAttentionSameBitsAtEveryPoolSize) {
  // The vectorized tiers reorder the reductions, so they are held to a
  // tolerance against the reference — but every pool size must still give
  // the same bits, because each work item owns its outputs, and the
  // backward that reruns the forward gives the saved-stats backward's bits.
  constexpr double kMaxRelativeError = 1e-5;
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > CpuSimdLevel()) continue;
    SCOPED_TRACE(SimdLevelName(level));
    for (const AttentionCase& c : AttentionCases()) {
      SCOPED_TRACE(::testing::Message()
                   << "seq " << c.seq << " head_dim " << c.head_dim);
      const AttentionInputs in(c);
      const AttentionTensors expected = in.Reference();
      ScopedRuntime rt(kPoolSizes[0], KernelMode::kOptimized, level);
      const AttentionTensors first = in.Optimized();
      EXPECT_LE(RelativeError(first.out, expected.out), kMaxRelativeError);
      EXPECT_LE(RelativeError(first.lse, expected.lse), kMaxRelativeError);
      EXPECT_LE(RelativeError(first.dq, expected.dq), kMaxRelativeError);
      EXPECT_LE(RelativeError(first.dk, expected.dk), kMaxRelativeError);
      EXPECT_LE(RelativeError(first.dv, expected.dv), kMaxRelativeError);
      for (int threads : kPoolSizes) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ThreadPool::SetGlobalThreads(threads);
        ExpectSameAttention(in.Optimized(), first);
        ExpectSameAttention(in.Optimized(/*saved=*/false), first);
      }
    }
  }
}

TEST(ParallelExactnessTest, CrossEntropyAndEmbeddingBitExact) {
  Rng rng(6);
  const Tensor logits = RandomTensor(50, 31, rng);
  const Tensor table = RandomTensor(31, 16, rng);
  std::vector<int> targets(50);
  std::vector<int> tokens(50);
  for (int i = 0; i < 50; ++i) {
    targets[i] = static_cast<int>(rng.NextBounded(31));
    tokens[i] = static_cast<int>(rng.NextBounded(31));
  }
  const Tensor dy = RandomTensor(50, 16, rng);

  Tensor dlogits_ref(50, 31);
  const double loss_ref =
      reference::CrossEntropy(logits, targets, &dlogits_ref);
  Tensor emb_ref(50, 16);
  reference::EmbeddingForward(table, tokens, &emb_ref);
  Tensor dtable_ref(31, 16);
  reference::EmbeddingBackward(tokens, dy, &dtable_ref);

  ScopedRuntime rt(4, KernelMode::kOptimized);
  Tensor dlogits(50, 31);
  const double loss = CrossEntropy(logits, targets, &dlogits);
  EXPECT_EQ(loss, loss_ref);
  EXPECT_TRUE(dlogits.ExactlyEquals(dlogits_ref));
  Tensor emb(50, 16);
  EmbeddingForward(table, tokens, &emb);
  EXPECT_TRUE(emb.ExactlyEquals(emb_ref));
  Tensor dtable(31, 16);
  EmbeddingBackward(tokens, dy, &dtable);
  EXPECT_TRUE(dtable.ExactlyEquals(dtable_ref));
}

// ---- Weight init: each element from its own stream position.

/// Init as drawn one element at a time on the caller: LayerNorm gains 1,
/// biases 0, one NextGaussian per weight element in declaration order.
MiniGptParams SerialInit(const MiniGptConfig& config, std::uint64_t seed) {
  MiniGptParams p = MiniGptParams::Zeros(config);
  Rng rng(seed);
  const auto draw = [&rng](Tensor* t) {
    for (std::int64_t i = 0; i < t->size(); ++i) {
      t->data()[i] = static_cast<float>(rng.NextGaussian() * 0.08);
    }
  };
  draw(&p.embedding);
  for (LayerParams& l : p.layers) {
    l.ln1_g.Fill(1.0f);
    l.ln2_g.Fill(1.0f);
    for (Tensor* w : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2}) draw(w);
  }
  p.lnf_g.Fill(1.0f);
  draw(&p.w_cls);
  return p;
}

std::uint64_t HashParams(MiniGptParams& params) {
  Fnv1aStream hash;
  for (const Tensor* t : params.Flat()) {
    hash.Update(t->data(), static_cast<std::size_t>(t->size()) * sizeof(float));
  }
  return hash.digest();
}

TEST(ParallelExactnessTest, InitSameBitsAtEveryPoolSize) {
  // Ragged sizes (37 x 24 embedding, 24 x 40 FFN weights) put the fill's
  // chunk boundaries inside tensors and across their ends.
  MiniGptConfig config;
  config.layers = 3;
  config.hidden = 24;
  config.heads = 4;
  config.ffn = 40;
  config.vocab = 37;
  MiniGptParams serial = SerialInit(config, 99);
  const std::uint64_t expected = HashParams(serial);
  for (int threads : kPoolSizes) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ScopedRuntime rt(threads, KernelMode::kOptimized);
    MiniGptParams pooled = MiniGptParams::Init(config, 99);
    EXPECT_EQ(HashParams(pooled), expected);
    const std::vector<Tensor*> a = pooled.Flat();
    const std::vector<Tensor*> b = serial.Flat();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i]->ExactlyEquals(*b[i])) << "param tensor " << i;
    }
  }
}

TEST(ParallelExactnessTest, FillGaussianMatchesSerialDrawsAndStreamEnd) {
  // A start three draws below 2^64, so the chunks' skips wrap.
  const std::uint64_t start = 0 - 3 * 0x9E3779B97F4A7C15ULL;
  for (int threads : kPoolSizes) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ScopedRuntime rt(threads, KernelMode::kOptimized);
    Rng serial(0);
    serial.set_state(start);
    Rng pooled = serial;
    std::vector<Tensor> tensors;
    for (const std::int64_t cols : {3000, 0, 1, 1500}) {
      tensors.push_back(Tensor::Uninitialized(1, cols));
    }
    std::vector<Tensor*> targets;
    for (Tensor& t : tensors) targets.push_back(&t);
    FillGaussian(targets, 0.5, pooled);
    for (const Tensor& t : tensors) {
      for (std::int64_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(t.data()[i],
                  static_cast<float>(serial.NextGaussian() * 0.5))
            << "element " << i << " of a " << t.size() << "-element tensor";
      }
    }
    EXPECT_EQ(pooled.state(), serial.state());
    const Tensor randn = Tensor::Randn(7, 300, 0.5, pooled);
    for (std::int64_t i = 0; i < randn.size(); ++i) {
      ASSERT_EQ(randn.data()[i],
                static_cast<float>(serial.NextGaussian() * 0.5));
    }
    EXPECT_EQ(pooled.state(), serial.state());
  }
}

// ---- Whole-model bit-exactness across kernel modes, pool sizes and the
// async copier.

struct StepResult {
  double loss = 0.0;
  MiniGptParams grads;
  std::int64_t recomputed_rows = 0;
  std::int64_t peak_stored_bytes = 0;
};

StepResult OneStep(const MiniGptConfig& config, ActivationPolicy policy,
                   double alpha, bool async,
                   const offload::BackendOptions& backend = {}) {
  const MiniGpt model(config);
  const MiniGptParams params = MiniGptParams::Init(config, 99);
  StepResult r;
  r.grads = MiniGptParams::Zeros(config);
  std::vector<int> tokens(config.seq);
  std::vector<int> targets(config.seq);
  Rng rng(7);
  for (int i = 0; i < config.seq; ++i) {
    tokens[i] = static_cast<int>(rng.NextBounded(config.vocab));
    targets[i] = static_cast<int>(rng.NextBounded(config.vocab));
  }
  ActivationStore store(policy, alpha, config.layers, async, backend);
  r.loss = model.ForwardBackward(params, tokens, targets, &store, &r.grads);
  r.recomputed_rows = store.recomputed_rows();
  r.peak_stored_bytes = store.peak_stored_bytes();
  return r;
}

void ExpectSameStep(StepResult& a, StepResult& b) {
  EXPECT_EQ(a.loss, b.loss);
  std::vector<Tensor*> ga = a.grads.Flat();
  std::vector<Tensor*> gb = b.grads.Flat();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_TRUE(ga[i]->ExactlyEquals(*gb[i])) << "grad tensor " << i;
  }
}

TEST(ParallelExactnessTest, ForwardBackwardMatchesReferenceAtAnyPoolSize) {
  MiniGptConfig config;
  config.layers = 4;  // layers 0 and 1 swap and go through recompute
  config.seq = 48;
  StepResult ref;
  {
    ScopedRuntime rt(1, KernelMode::kReference);
    ref = OneStep(config, ActivationPolicy::kTokenWise, 0.5, false);
  }
  {
    ScopedRuntime rt(1, KernelMode::kOptimized);
    StepResult serial =
        OneStep(config, ActivationPolicy::kTokenWise, 0.5, false);
    ExpectSameStep(serial, ref);
  }
  {
    ScopedRuntime rt(4, KernelMode::kOptimized);
    StepResult parallel =
        OneStep(config, ActivationPolicy::kTokenWise, 0.5, false);
    ExpectSameStep(parallel, ref);
  }
}

TEST(ParallelExactnessTest, AsyncOffloadBitIdenticalToInline) {
  MiniGptConfig config;
  config.layers = 4;
  config.seq = 48;
  for (double alpha : {0.0, 0.5, 1.0}) {
    ScopedRuntime rt(4, KernelMode::kOptimized);
    StepResult inline_result =
        OneStep(config, ActivationPolicy::kTokenWise, alpha, false);
    StepResult async_result =
        OneStep(config, ActivationPolicy::kTokenWise, alpha, true);
    ExpectSameStep(async_result, inline_result);
  }
}

TEST(ParallelExactnessTest, AsyncOffloadReportsCopierActivity) {
  MiniGptConfig config;
  config.layers = 4;
  config.seq = 48;
  TrainRunOptions options;
  options.model = config;
  options.policy = ActivationPolicy::kTokenWise;
  options.alpha = 0.5;
  options.iterations = 2;
  options.async_offload = true;
  ScopedRuntime rt(2, KernelMode::kOptimized);
  const TrainRunResult result = RunTraining(options);
  EXPECT_GT(result.offload_stats.offloaded_bytes, 0);
  EXPECT_GT(result.offload_stats.prefetched_bytes, 0);
  EXPECT_GT(result.offload_stats.copier_busy_seconds, 0.0);
  EXPECT_GE(result.offload_stats.overlap_efficiency(), 0.0);
  EXPECT_LE(result.offload_stats.overlap_efficiency(), 1.0);

  // And the losses match a sync run exactly.
  options.async_offload = false;
  const TrainRunResult sync_result = RunTraining(options);
  EXPECT_EQ(result.losses, sync_result.losses);
  EXPECT_EQ(sync_result.offload_stats.offloaded_bytes, 0);
}

TEST(ParallelExactnessTest, StashBackendsBitIdenticalSerialAndAsync) {
  // The restore path must stay bit-exact (Fig. 12d) no matter which stash
  // tier holds the cut rows and whether the copier thread moves them.
  MiniGptConfig config;
  config.layers = 4;
  config.seq = 48;
  ScopedRuntime rt(4, KernelMode::kOptimized);
  StepResult ref = OneStep(config, ActivationPolicy::kTokenWise, 0.5, false);

  std::vector<offload::BackendOptions> backends(3);
  backends[0].kind = offload::BackendKind::kRam;
  backends[1].kind = offload::BackendKind::kDisk;
  backends[1].disk.page_bytes = 4 * 1024;  // several pages per layer blob
  backends[2].kind = offload::BackendKind::kTiered;
  backends[2].ram_capacity_bytes = 24 * 1024;  // force some layers to disk
  backends[2].disk.page_bytes = 4 * 1024;

  for (const offload::BackendOptions& backend : backends) {
    for (bool async : {false, true}) {
      StepResult result =
          OneStep(config, ActivationPolicy::kTokenWise, 0.5, async, backend);
      ExpectSameStep(result, ref);
    }
  }
}

// ---- The last two layers stay in the rounding buffers (§4.1): they skip
// the stash, the copier and recompute, and the rest of the step is unchanged.

MiniGptConfig FiveLayerModel() {
  MiniGptConfig config;
  config.layers = 5;
  config.seq = 48;
  return config;
}

/// A tiered stash whose RAM tier is smaller than one blob of
/// FiveLayerModel (~54 KiB), so every swapped layer goes through a disk
/// throttled to 20 MB/s (~2.7 ms per blob).
offload::BackendOptions SlowDiskBackend() {
  offload::BackendOptions backend;
  backend.kind = offload::BackendKind::kTiered;
  backend.ram_capacity_bytes = 1024;
  backend.disk.page_bytes = 4 * 1024;
  backend.disk.bytes_per_second = 20e6;
  return backend;
}

TEST(ParallelExactnessTest, OnlyLayersBeforeTheLastTwoSwap) {
  const MiniGptConfig config = FiveLayerModel();
  const double alpha = 0.5;
  const std::int64_t s = config.seq;
  const std::int64_t h = config.hidden;
  const std::int64_t cut = std::llround(alpha * static_cast<double>(s));
  // Kept bytes of one swapped layer: the input, the attention output and
  // its log-sum-exp (one float per row and head) in full, plus the first
  // `cut` rows of every token-wise tensor (ln1_out, q, k, v, proj_out,
  // ln2_out: h columns; two rstd columns; fc1_out and gelu_out: ffn
  // columns).
  const std::int64_t kept_bytes =
      4 * (2 * s * h + s * config.heads +
           cut * (6 * h + 2 + 2 * config.ffn));
  ScopedRuntime rt(4, KernelMode::kOptimized);
  StepResult reference =
      OneStep(config, ActivationPolicy::kRetainAll, 1.0, false);

  std::vector<offload::BackendOptions> backends(2);
  backends[0].kind = offload::BackendKind::kRam;
  backends[1].kind = offload::BackendKind::kTiered;
  backends[1].ram_capacity_bytes = kept_bytes + kept_bytes / 2;  // spills
  backends[1].disk.page_bytes = 4 * 1024;
  for (const offload::BackendOptions& backend : backends) {
    for (bool async : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "backend " << static_cast<int>(backend.kind)
                   << (async ? " async" : " inline"));
      StepResult result = OneStep(config, ActivationPolicy::kTokenWise,
                                  alpha, async, backend);
      EXPECT_EQ(result.recomputed_rows, 3 * (s - cut));
      EXPECT_EQ(result.peak_stored_bytes, 3 * kept_bytes);
      ExpectSameStep(result, reference);
    }
  }
}

TEST(ParallelExactnessTest, HostStagingIsAllocatedInTheFirstIteration) {
  // The run's blob buffers and restore sets are made by its first
  // iteration and recycled by every later one, the way the arena's heap
  // fallbacks stop after its first step.
  TrainRunOptions options;
  options.model = FiveLayerModel();
  options.policy = ActivationPolicy::kTokenWise;
  options.alpha = 0.5;
  options.async_offload = true;
  options.backend = SlowDiskBackend();
  ScopedRuntime rt(2, KernelMode::kOptimized);
  options.iterations = 1;
  const TrainRunResult first = RunTraining(options);
  options.iterations = 4;
  const TrainRunResult four = RunTraining(options);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(four.status.ok()) << four.status.ToString();
  ASSERT_GT(four.offload_stats.disk_tier.put_bytes, 0);
  // Two blob buffers carry every spilled blob (the one on the disk and the
  // one beside it) and two restore sets every prefetch (layer i's set is
  // free again once bwd(i) ends).
  EXPECT_EQ(first.offload_stats.staging_allocations, 4);
  EXPECT_EQ(four.offload_stats.staging_allocations,
            first.offload_stats.staging_allocations);
  EXPECT_EQ(four.arena_heap_fallback_allocs, 0);
}

#ifndef MEMO_OBS_DISABLE_TRACING

/// One recorded span with its thread and "layer" argument (-1 when it has
/// none).
struct LayerSpan {
  std::string name;
  int tid = 0;
  std::int64_t layer = -1;
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// Rebuilds B/E pairs per thread from the global recorder.
std::vector<LayerSpan> RecordedSpans() {
  std::vector<LayerSpan> spans;
  std::map<int, std::vector<LayerSpan>> stacks;
  for (const obs::TaggedTraceEvent& tagged :
       obs::TraceRecorder::Global().Snapshot()) {
    const obs::TraceEvent& e = tagged.event;
    if (e.phase == 'B') {
      LayerSpan span;
      span.name = e.effective_name();
      span.tid = tagged.tid;
      if (e.arg_name != nullptr && std::string(e.arg_name) == "layer") {
        span.layer = e.arg_value;
      }
      span.begin_us = e.ts_us;
      stacks[tagged.tid].push_back(span);
    } else if (e.phase == 'E') {
      std::vector<LayerSpan>& stack = stacks[tagged.tid];
      if (stack.empty()) continue;
      LayerSpan span = stack.back();
      stack.pop_back();
      span.end_us = e.ts_us;
      spans.push_back(span);
    }
  }
  return spans;
}

TEST(ParallelExactnessTest, CopierFollowsTheTwoBufferSchedule) {
  // The async store runs model::SwapSchedule, the list the simulator
  // enqueues: every op records one span named as the op, and no op starts
  // before the ops it waits for have ended.
  const MiniGptConfig config = FiveLayerModel();
  for (const offload::BackendOptions& backend :
       {offload::BackendOptions{}, SlowDiskBackend()}) {
    const bool spills = backend.kind != offload::BackendKind::kRam;
    SCOPED_TRACE(spills ? "tiered, throttled disk" : "ram");
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Enable();
    {
      ScopedRuntime rt(2, KernelMode::kOptimized);
      OneStep(config, ActivationPolicy::kTokenWise, 0.5, /*async=*/true,
              backend);
    }
    obs::TraceRecorder::Global().Disable();
    const std::vector<LayerSpan> spans = RecordedSpans();
    obs::TraceRecorder::Global().Clear();
    const std::vector<model::SwapOp> schedule =
        model::SwapSchedule(config.layers, spills);

    using K = model::SwapOpKind;
    const auto find = [&](const std::string& name, std::int64_t layer) {
      const LayerSpan* found = nullptr;
      int count = 0;
      for (const LayerSpan& span : spans) {
        if (span.name == name && span.layer == layer) {
          found = &span;
          ++count;
        }
      }
      EXPECT_EQ(count, 1) << name << " of layer " << layer;
      return found;
    };
    const auto is_compute = [](K kind) {
      return kind == K::kFwd || kind == K::kBwd;
    };
    // The lanes record no span the schedule lacks: the last two layers stay
    // in their rounding buffers.
    std::size_t transfers = 0;
    for (const model::SwapOp& op : schedule) {
      if (!is_compute(op.kind)) ++transfers;
    }
    std::size_t transfer_spans = 0;
    for (const LayerSpan& span : spans) {
      for (K kind :
           {K::kOffload, K::kSpillWrite, K::kSpillRead, K::kPrefetch}) {
        if (span.name == model::SwapOpName(kind)) ++transfer_spans;
      }
    }
    EXPECT_EQ(transfer_spans, transfers);

    // Every edge: a lane op begins after the ops it waits for end; the
    // compute thread waits for what fwd(i) and bwd(i) wait for inside
    // Stash(i) and Restore(i), so those calls end after them.
    for (const model::SwapOp& op : schedule) {
      const LayerSpan* waiter =
          op.kind == K::kFwd   ? find("stash", op.layer)
          : op.kind == K::kBwd ? find("restore", op.layer)
                               : find(model::SwapOpName(op.kind), op.layer);
      ASSERT_NE(waiter, nullptr);
      const double waited_at =
          is_compute(op.kind) ? waiter->end_us : waiter->begin_us;
      for (const int wait : op.waits) {
        const model::SwapOp& dep = schedule[wait];
        const LayerSpan* before = find(model::SwapOpName(dep.kind), dep.layer);
        ASSERT_NE(before, nullptr);
        EXPECT_GE(waited_at, before->end_us)
            << model::SwapOpName(op.kind) << "(" << op.layer
            << ") did not wait for " << model::SwapOpName(dep.kind) << "("
            << dep.layer << ")";
      }
    }

    // Each lane runs its ops in list order on a thread of its own: the
    // compute thread fwd and bwd, the copier offload and prefetch, the disk
    // lane the spill ops.
    std::map<std::string, std::vector<const LayerSpan*>> lanes;
    for (const model::SwapOp& op : schedule) {
      const char* lane = is_compute(op.kind) ? "compute"
                         : op.kind == K::kOffload || op.kind == K::kPrefetch
                             ? "copier"
                             : "disk";
      lanes[lane].push_back(find(model::SwapOpName(op.kind), op.layer));
    }
    ASSERT_EQ(lanes.size(), spills ? 3u : 2u);
    std::vector<int> lane_tids;
    for (const auto& [lane, ops] : lanes) {
      SCOPED_TRACE(lane);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ASSERT_NE(ops[i], nullptr);
        EXPECT_EQ(ops[i]->tid, ops.front()->tid) << ops[i]->name;
        if (i > 0) {
          EXPECT_GE(ops[i]->begin_us, ops[i - 1]->end_us) << ops[i]->name;
        }
      }
      for (const int tid : lane_tids) EXPECT_NE(ops.front()->tid, tid);
      lane_tids.push_back(ops.front()->tid);
    }
    if (!spills) continue;

    // The disk lane runs every disk transfer, one at a time.
    const int disk_tid = lanes["disk"].front()->tid;
    std::vector<LayerSpan> io;
    for (const LayerSpan& span : spans) {
      if (span.name == "disk_put" || span.name == "disk_read") {
        io.push_back(span);
      }
    }
    std::sort(io.begin(), io.end(),
              [](const LayerSpan& a, const LayerSpan& b) {
                return a.begin_us < b.begin_us;
              });
    ASSERT_FALSE(io.empty());
    for (std::size_t i = 0; i < io.size(); ++i) {
      EXPECT_EQ(io[i].tid, disk_tid) << io[i].name << " off the disk lane";
      if (i > 0) {
        EXPECT_GE(io[i].begin_us, io[i - 1].end_us)
            << io[i].name << " overlaps " << io[i - 1].name;
      }
    }
  }
}

#endif  // !MEMO_OBS_DISABLE_TRACING

TEST(ParallelExactnessTest, BilevelPlanIdenticalAcrossPoolSizes) {
  model::ModelConfig m = model::Gpt7B();
  m.num_layers = 4;
  model::TraceGenOptions options;
  options.seq_local = 8192;
  options.tensor_parallel = 4;
  options.mode = model::ActivationMode::kMemoBuffers;
  const model::ModelTrace trace = model::GenerateModelTrace(m, options);

  ThreadPool::SetGlobalThreads(1);
  const auto serial = planner::PlanMemory(trace);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ThreadPool::SetGlobalThreads(4);
  const auto parallel = planner::PlanMemory(trace);
  ThreadPool::SetGlobalThreads(1);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(serial->arena_bytes, parallel->arena_bytes);
  EXPECT_EQ(serial->layer_fwd_peak, parallel->layer_fwd_peak);
  EXPECT_EQ(serial->layer_bwd_peak, parallel->layer_bwd_peak);
  EXPECT_EQ(serial->addresses.size(), parallel->addresses.size());
  for (const auto& [id, address] : serial->addresses) {
    auto it = parallel->addresses.find(id);
    ASSERT_TRUE(it != parallel->addresses.end()) << "tensor " << id;
    EXPECT_EQ(it->second, address) << "tensor " << id;
  }
}

}  // namespace
}  // namespace memo::train
