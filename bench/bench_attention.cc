// Attention kernel microbench: the naive reference against the packed
// kernels (per-head K^T/V panels; a running-max softmax forward and the
// one-pass FlashAttention-2 backward from the forward's saved output and
// log-sum-exp, the way the trainer calls it), forward and backward, across
// seq_len x head_dim x threads. Writes BENCH_attention.json; speedups are
// against the single-thread reference and parallel_efficiency is against
// the same kernel at one thread.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "train/kernels/kernels.h"
#include "train/ops.h"
#include "train/reference_ops.h"
#include "train/tensor.h"

namespace {

using memo::ThreadPool;
using memo::train::Tensor;
namespace kernels = memo::train::kernels;

constexpr int kHeads = 4;

/// One shape's operands: the inputs, and the forward's output and
/// log-sum-exp the backward starts from.
struct Operands {
  Tensor q, k, v, dout, out, lse;
};

/// What a timed call writes: out and lse for the forward, dq/dk/dv (a, b,
/// c) for the backward.
struct Outputs {
  Tensor a, b, c, lse;
};

/// The bench's timed unit for one direction: the optimized op, or the
/// preserved reference kernel it is judged against.
struct Direction {
  const char* name;
  void (*reference)(const Operands&, Outputs*);
  void (*optimized)(const Operands&, Outputs*);
};

void ReferenceForward(const Operands& x, Outputs* o) {
  memo::train::reference::AttentionForward(x.q, x.k, x.v, kHeads, &o->a);
}

void OptimizedForward(const Operands& x, Outputs* o) {
  memo::train::AttentionForward(x.q, x.k, x.v, kHeads, &o->a, &o->lse);
}

void ReferenceBackward(const Operands& x, Outputs* o) {
  memo::train::reference::AttentionBackward(x.q, x.k, x.v, kHeads, x.dout,
                                            &o->a, &o->b, &o->c);
}

void OptimizedBackward(const Operands& x, Outputs* o) {
  memo::train::AttentionBackward(x.q, x.k, x.v, kHeads, x.out, x.lse, x.dout,
                                 &o->a, &o->b, &o->c);
}

struct Shape {
  std::int64_t seq;
  std::int64_t head_dim;
};

}  // namespace

int main() {
  // The last shape is train_longctx's per-head shape (seq 1024, head dim
  // 16).
  const Shape shapes[] = {{128, 8},  {128, 32}, {256, 8},  {256, 32},
                          {512, 8},  {512, 32}, {1024, 16}};
  const Direction directions[] = {
      {"attention_fwd", &ReferenceForward, &OptimizedForward},
      {"attention_bwd", &ReferenceBackward, &OptimizedBackward}};
  const int thread_counts[] = {1, 4};
  const char* simd = memo::SimdLevelName(kernels::Active().level);
  std::vector<memo::bench::BenchRecord> records;

  for (const Direction& dir : directions) {
    for (const Shape& shape : shapes) {
      const std::int64_t s = shape.seq;
      const std::int64_t h = kHeads * shape.head_dim;
      memo::Rng rng(7);
      Operands x;
      x.q = Tensor::Randn(s, h, 0.5, rng);
      x.k = Tensor::Randn(s, h, 0.5, rng);
      x.v = Tensor::Randn(s, h, 0.5, rng);
      x.dout = Tensor::Randn(s, h, 0.5, rng);
      x.out = Tensor(s, h);
      x.lse = Tensor(s, kHeads);
      memo::train::AttentionForward(x.q, x.k, x.v, kHeads, &x.out, &x.lse);
      Outputs o{Tensor(s, h), Tensor(s, h), Tensor(s, h), Tensor(s, kHeads)};
      const std::string op = std::string(dir.name) + "_s" +
                             std::to_string(s) + "_d" +
                             std::to_string(shape.head_dim);
      const int reps = s >= 1024 ? 3 : s >= 512 ? 5 : 10;

      ThreadPool::SetGlobalThreads(1);
      const double ref_ms = memo::bench::BestWallMs(
          reps, [&] { dir.reference(x, &o); });
      memo::bench::BenchRecord reference;
      reference.op = op;
      reference.wall_ms = ref_ms;
      reference.kernel = "reference";
      records.push_back(reference);
      std::printf("%-22s %-16s threads=%d  %8.3f ms\n", op.c_str(),
                  "reference", 1, ref_ms);

      double one_thread_ms = 0.0;
      for (int threads : thread_counts) {
        ThreadPool::SetGlobalThreads(threads);
        const double ms = memo::bench::BestWallMs(
            reps, [&] { dir.optimized(x, &o); });
        if (threads == 1) one_thread_ms = ms;
        const double eff =
            threads > 1 ? (one_thread_ms / ms) / threads : 1.0;
        memo::bench::BenchRecord record;
        record.op = op;
        record.threads = threads;
        record.wall_ms = ms;
        record.speedup_vs_serial = ref_ms / ms;
        record.kernel = "streaming_packed";
        record.simd = simd;
        record.parallel_efficiency = eff;
        records.push_back(record);
        std::printf(
            "%-22s %-16s threads=%d  %8.3f ms  (%.2fx vs ref, eff=%.2f)\n",
            op.c_str(), "streaming_packed", threads, ms, ref_ms / ms, eff);
      }
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());

  const char* path = "BENCH_attention.json";
  if (memo::bench::WriteBenchJson(path, records)) {
    std::printf("wrote %s\n", path);
    return 0;
  }
  std::fprintf(stderr, "failed to write %s\n", path);
  return 1;
}
