// Microbenchmarks of the numeric training substrate: attention forward and
// backward, one full mini-GPT iteration under both activation policies, and
// the token-wise restore path in isolation (the recomputation MEMO pays
// when alpha < 1). After the google-benchmark suite the binary times the
// full train step and key kernels against the preserved naive serial
// kernels, and a training call's start-up at 1 and 4 threads, and writes
// the results to BENCH_micro_train.json.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_json.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "train/adam.h"
#include "train/kernels/kernels.h"
#include "train/reference_ops.h"
#include "train/tensor_arena.h"
#include "train/trainer.h"

namespace {

using memo::train::ActivationPolicy;

memo::train::MiniGptConfig BenchModel() {
  // Large enough that the weight matrices (h*ffn floats = 1 MiB) overflow
  // L1/L2 — the regime where the cache-blocked GEMMs matter, and the same
  // compute profile (GEMM-dominated) as the paper's real models.
  memo::train::MiniGptConfig c;
  c.layers = 2;
  c.hidden = 256;
  c.heads = 8;
  c.ffn = 1024;
  c.vocab = 256;
  c.seq = 128;
  return c;
}

void BM_AttentionForward(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  memo::Rng rng(1);
  const auto q = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  const auto k = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  const auto v = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  memo::train::Tensor out(s, 32);
  for (auto _ : state) {
    memo::train::AttentionForward(q, k, v, 4, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetComplexityN(s);
}
BENCHMARK(BM_AttentionForward)->Arg(64)->Arg(128)->Arg(256)->Complexity();

/// The backward as the trainer calls it: from the forward's saved output
/// and log-sum-exp.
void BM_AttentionBackward(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  memo::Rng rng(2);
  const auto q = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  const auto k = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  const auto v = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  const auto dout = memo::train::Tensor::Randn(s, 32, 0.5, rng);
  memo::train::Tensor out(s, 32);
  memo::train::Tensor lse(s, 4);
  memo::train::AttentionForward(q, k, v, 4, &out, &lse);
  memo::train::Tensor dq(s, 32);
  memo::train::Tensor dk(s, 32);
  memo::train::Tensor dv(s, 32);
  for (auto _ : state) {
    memo::train::AttentionBackward(q, k, v, 4, out, lse, dout, &dq, &dk, &dv);
    benchmark::DoNotOptimize(dq.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AttentionBackward)->Arg(64)->Arg(128);

/// One full mini-GPT iteration of `config` on a fixed sequence.
class Iteration {
 public:
  explicit Iteration(const memo::train::MiniGptConfig& config)
      : config_(config),
        model_(config),
        params_(memo::train::MiniGptParams::Init(config, 5)),
        grads_(memo::train::MiniGptParams::Zeros(config)) {
    memo::train::SyntheticData data(config.vocab, 5);
    data.NextSequence(config.seq, &tokens_, &targets_);
  }

  void Run(ActivationPolicy policy, double alpha) {
    memo::train::FillZeros(grads_.Flat());
    memo::train::ActivationStore store(policy, alpha, config_.layers);
    benchmark::DoNotOptimize(
        model_.ForwardBackward(params_, tokens_, targets_, &store, &grads_));
  }

 private:
  memo::train::MiniGptConfig config_;
  memo::train::MiniGpt model_;
  memo::train::MiniGptParams params_;
  memo::train::MiniGptParams grads_;
  std::vector<int> tokens_;
  std::vector<int> targets_;
};

/// The bench model at 4 layers for the token-wise rows: the last two layers
/// stay in the rounding buffers (§4.1), so only deeper models swap.
memo::train::MiniGptConfig SwappingBenchModel() {
  memo::train::MiniGptConfig c = BenchModel();
  c.layers = 4;
  return c;
}

void BM_IterationRetainAll(benchmark::State& state) {
  Iteration iteration(BenchModel());
  for (auto _ : state) iteration.Run(ActivationPolicy::kRetainAll, 1.0);
}
BENCHMARK(BM_IterationRetainAll);

void BM_IterationTokenWiseAlpha0(benchmark::State& state) {
  // Worst case for recomputation: every "other" row of the swapped layers
  // replayed.
  Iteration iteration(SwappingBenchModel());
  for (auto _ : state) iteration.Run(ActivationPolicy::kTokenWise, 0.0);
}
BENCHMARK(BM_IterationTokenWiseAlpha0);

void BM_IterationTokenWiseAlpha1(benchmark::State& state) {
  // Pure "swapping": rows copied out and back, nothing recomputed.
  Iteration iteration(SwappingBenchModel());
  for (auto _ : state) iteration.Run(ActivationPolicy::kTokenWise, 1.0);
}
BENCHMARK(BM_IterationTokenWiseAlpha1);

// ---- Speedup study: optimized kernels (tiled + thread-pool) against the
// naive serial baseline in train/reference_ops.cc, written as JSON.

double TimeTrainStepMs() {
  const auto config = BenchModel();
  const memo::train::MiniGpt model(config);
  const auto params = memo::train::MiniGptParams::Init(config, 5);
  auto grads = memo::train::MiniGptParams::Zeros(config);
  std::vector<int> tokens;
  std::vector<int> targets;
  memo::train::SyntheticData data(config.vocab, 5);
  data.NextSequence(config.seq, &tokens, &targets);
  // Serve step temporaries from the arena exactly like the trainer hot loop
  // does: the first rep measures and commits the DSA plan, every later rep
  // (which is what the best-of-N timing keeps) replays it heap-free.
  memo::train::TensorArena arena;
  return memo::bench::BestWallMs(8, [&] {
    arena.BeginStep();
    memo::train::ArenaScope scope(&arena);
    memo::train::FillZeros(grads.Flat());
    memo::train::ActivationStore store(ActivationPolicy::kRetainAll, 1.0,
                                       config.layers);
    benchmark::DoNotOptimize(
        model.ForwardBackward(params, tokens, targets, &store, &grads));
  });
}

double TimeLinearForwardMs() {
  memo::Rng rng(3);
  const auto x = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto w = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto b = memo::train::Tensor::Randn(1, 256, 0.5, rng);
  memo::train::Tensor y(256, 256);
  return memo::bench::BestWallMs(20, [&] {
    memo::train::LinearForward(x, w, b, &y);
    benchmark::DoNotOptimize(y.data());
  });
}

double TimeAttentionForwardMs() {
  // The bench model's attention shape (hidden=256, heads=8 -> head_dim=32):
  // the regime the streaming packed kernel targets.
  memo::Rng rng(4);
  const auto q = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto k = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto v = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  memo::train::Tensor out(256, 256);
  return memo::bench::BestWallMs(20, [&] {
    memo::train::AttentionForward(q, k, v, 8, &out);
    benchmark::DoNotOptimize(out.data());
  });
}

/// The linear_forward shape's backward (dx, dw and db): the fwd/bwd ratio
/// of the two rows is the backward overhead the op layer pays.
double TimeLinearBackwardMs() {
  memo::Rng rng(3);
  const auto x = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto w = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  const auto dy = memo::train::Tensor::Randn(256, 256, 0.5, rng);
  memo::train::Tensor dx(256, 256), dw(256, 256), db(1, 256);
  return memo::bench::BestWallMs(20, [&] {
    memo::train::LinearBackward(x, w, dy, &dx, &dw, &db);
    benchmark::DoNotOptimize(dw.data());
  });
}

/// The attention backward as the trainer calls it, from the forward's
/// saved output and log-sum-exp: s rows of hidden width h in `heads` heads.
double TimeAttentionBackwardMs(std::int64_t s, std::int64_t h, int heads,
                               int reps) {
  memo::Rng rng(4);
  const auto q = memo::train::Tensor::Randn(s, h, 0.5, rng);
  const auto k = memo::train::Tensor::Randn(s, h, 0.5, rng);
  const auto v = memo::train::Tensor::Randn(s, h, 0.5, rng);
  const auto dout = memo::train::Tensor::Randn(s, h, 0.5, rng);
  memo::train::Tensor out(s, h), lse(s, heads);
  memo::train::AttentionForward(q, k, v, heads, &out, &lse);
  memo::train::Tensor dq(s, h), dk(s, h), dv(s, h);
  return memo::bench::BestWallMs(reps, [&] {
    memo::train::AttentionBackward(q, k, v, heads, out, lse, dout, &dq, &dk,
                                   &dv);
    benchmark::DoNotOptimize(dk.data());
  });
}

/// The attention_forward shape's backward.
double TimeAttentionBackwardBenchShapeMs() {
  return TimeAttentionBackwardMs(256, 256, 8, 20);
}

/// train_longctx's attention (seq 1024, hidden 128, 8 heads of dim 16).
double TimeAttentionBackwardLongctxMs() {
  return TimeAttentionBackwardMs(1024, 128, 8, 3);
}

/// A training call's start-up at train_longctx's shapes (4 layers, hidden
/// 128, ffn 512, vocab 64; 802,816 drawn weights), as RunTraining does it
/// before its first iteration: the weights, the zero gradients and Adam's
/// zero moments.
double TimeTrainSetupMs() {
  memo::train::MiniGptConfig config;
  config.layers = 4;
  config.hidden = 128;
  config.heads = 8;
  config.ffn = 512;
  config.vocab = 64;
  config.seq = 1024;
  return memo::bench::BestWallMs(8, [&] {
    auto params = memo::train::MiniGptParams::Init(config, 5);
    auto grads = memo::train::MiniGptParams::Zeros(config);
    memo::train::Adam adam;
    adam.EnsureState(params.Flat());
    benchmark::DoNotOptimize(params.w_cls.data());
    benchmark::DoNotOptimize(grads.w_cls.data());
  });
}

void RunSpeedupStudy() {
  using memo::ScopedSimdLevel;
  using memo::SimdLevel;
  using memo::SimdLevelName;
  using memo::ThreadPool;
  using memo::train::KernelMode;
  namespace kernels = memo::train::kernels;
  struct Case {
    const char* op;
    double (*time_ms)();
  };
  const Case cases[] = {{"train_step", &TimeTrainStepMs},
                        {"linear_forward", &TimeLinearForwardMs},
                        {"linear_backward", &TimeLinearBackwardMs},
                        {"attention_forward", &TimeAttentionForwardMs},
                        {"attention_backward",
                         &TimeAttentionBackwardBenchShapeMs},
                        {"attention_backward_s1024_d16",
                         &TimeAttentionBackwardLongctxMs}};
  std::vector<memo::bench::BenchRecord> records;
  auto emit = [&records](const Case& c, double serial_ms, double ms,
                         const char* kernel, const char* simd,
                         double one_thread_ms) {
    // Label the row with the pool size that actually ran, not the requested
    // one (rows used to claim "threads": 1 while showing a parallel
    // speedup), and with the dispatch level the kernel layer executed.
    const int threads = ThreadPool::Global().threads();
    const double efficiency =
        threads > 1 && one_thread_ms > 0.0
            ? (one_thread_ms / ms) / static_cast<double>(threads)
            : 1.0;
    memo::bench::BenchRecord record;
    record.op = c.op;
    record.threads = threads;
    record.wall_ms = ms;
    record.speedup_vs_serial = serial_ms / ms;
    record.kernel = kernel;
    record.simd = simd;
    record.parallel_efficiency = efficiency;
    records.push_back(record);
    std::printf("%-18s kernel=%-9s simd=%-6s threads=%d  %8.3f ms  "
                "(%.2fx vs serial, eff=%.2f)\n",
                c.op, kernel, *simd ? simd : "-", threads, ms,
                serial_ms / ms, efficiency);
  };
  for (const Case& c : cases) {
    ThreadPool::SetGlobalThreads(1);
    memo::train::SetKernelMode(KernelMode::kReference);
    const double serial_ms = c.time_ms();
    emit(c, serial_ms, serial_ms, "reference", "", 0.0);
    memo::train::SetKernelMode(KernelMode::kOptimized);
    // Single-threaded sweep over every dispatch tier this build + CPU can
    // execute (requests above the ceiling clamp, so skip duplicates).
    // Remember the best tier's one-thread time: it is the baseline the
    // parallel row's efficiency is judged against (same kernel, same simd).
    double best_tier_1t_ms = 0.0;
    for (SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      ScopedSimdLevel pin(level);
      const kernels::KernelTable& table = kernels::Active();
      if (table.level != level) continue;
      const double ms = c.time_ms();
      best_tier_1t_ms = ms;  // last executed tier == the auto-detected best
      emit(c, serial_ms, ms, "optimized", SimdLevelName(table.level), 0.0);
    }
    // Parallel row at the auto-detected (best available) dispatch level.
    ThreadPool::SetGlobalThreads(4);
    emit(c, serial_ms, c.time_ms(), "optimized",
         SimdLevelName(kernels::Active().level), best_tier_1t_ms);
  }
  // Start-up runs no dispatched kernel: one row per pool size, against the
  // same code at one thread.
  const Case setup{"train_setup", &TimeTrainSetupMs};
  ThreadPool::SetGlobalThreads(1);
  const double setup_1t_ms = setup.time_ms();
  emit(setup, setup_1t_ms, setup_1t_ms, "optimized", "", 0.0);
  ThreadPool::SetGlobalThreads(4);
  emit(setup, setup_1t_ms, setup.time_ms(), "optimized", "", setup_1t_ms);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
  const char* path = "BENCH_micro_train.json";
  if (memo::bench::WriteBenchJson(path, records)) {
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

// ---- `--check-losses`: CI smoke mode (run by ctest once with
// MEMO_SIMD=scalar and once at the CPU's own tier). Trains the bench model
// twice — dispatched kernels + step-scoped arena vs the preserved naive
// reference kernels — and requires the loss series to match, plus the
// arena's zero-heap-allocation steady state. At MEMO_SIMD=scalar the match
// must be bit for bit (the scalar table's contract); any drift means a
// kernel or the arena changed numerics.

int RunCheckLosses() {
  using memo::train::KernelMode;
  memo::train::TrainRunOptions options;
  options.model = BenchModel();
  options.iterations = 6;
  options.policy = ActivationPolicy::kRetainAll;

  memo::train::SetKernelMode(KernelMode::kOptimized);
  options.use_arena = true;
  const auto dispatched = memo::train::RunTraining(options);

  memo::train::SetKernelMode(KernelMode::kReference);
  options.use_arena = false;
  const auto reference = memo::train::RunTraining(options);

  const memo::SimdLevel level = memo::train::kernels::Active().level;
  const char* simd = memo::SimdLevelName(level);
  // Bit-exact is the scalar table's contract (what CI pins via MEMO_SIMD);
  // vectorized tiers reorder reductions, so a run at avx2/avx512 is held to
  // a loss tolerance instead.
  const double tol = level == memo::SimdLevel::kScalar ? 0.0 : 1e-3;
  if (!dispatched.status.ok() || !reference.status.ok()) {
    std::fprintf(stderr, "check-losses: training failed\n");
    return 1;
  }
  if (dispatched.losses.size() != reference.losses.size()) {
    std::fprintf(stderr, "check-losses: loss series length mismatch\n");
    return 1;
  }
  int rc = 0;
  for (std::size_t i = 0; i < dispatched.losses.size(); ++i) {
    if (std::abs(dispatched.losses[i] - reference.losses[i]) > tol) {
      std::fprintf(stderr,
                   "check-losses: iter %zu diverged at simd=%s: "
                   "%.17g (dispatched) vs %.17g (reference)\n",
                   i, simd, dispatched.losses[i], reference.losses[i]);
      rc = 1;
    }
  }
  if (dispatched.arena_heap_fallback_allocs != 0 ||
      dispatched.arena_plan_divergences != 0) {
    std::fprintf(stderr,
                 "check-losses: arena leaked to the heap (fallbacks=%lld, "
                 "divergences=%lld)\n",
                 static_cast<long long>(dispatched.arena_heap_fallback_allocs),
                 static_cast<long long>(dispatched.arena_plan_divergences));
    rc = 1;
  }
  if (rc == 0) {
    std::printf(
        "check-losses: %zu iterations matched reference at simd=%s "
        "(tol=%g), arena planned_steps=%lld heap_fallbacks=0\n",
        dispatched.losses.size(), simd, tol,
        static_cast<long long>(dispatched.arena_planned_steps));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-losses") == 0) return RunCheckLosses();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunSpeedupStudy();
  return 0;
}
