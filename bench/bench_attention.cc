// Attention kernel microbench: the naive reference against the packed
// kernels (per-head K^T/V panels; a running-max softmax forward and the
// two-pass FlashAttention-2-style backward), forward and backward, across
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

/// The bench's timed unit for one direction: the optimized op, or the
/// preserved reference kernel it is judged against.
struct Direction {
  const char* name;
  void (*reference)(const Tensor&, const Tensor&, const Tensor&,
                    const Tensor&, Tensor*, Tensor*, Tensor*);
  void (*optimized)(const Tensor&, const Tensor&, const Tensor&,
                    const Tensor&, Tensor*, Tensor*, Tensor*);
};

void ReferenceForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor&, Tensor* out, Tensor*, Tensor*) {
  memo::train::reference::AttentionForward(q, k, v, kHeads, out);
}

void OptimizedForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor&, Tensor* out, Tensor*, Tensor*) {
  memo::train::AttentionForward(q, k, v, kHeads, out);
}

void ReferenceBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv) {
  memo::train::reference::AttentionBackward(q, k, v, kHeads, dout, dq, dk,
                                            dv);
}

void OptimizedBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv) {
  memo::train::AttentionBackward(q, k, v, kHeads, dout, dq, dk, dv);
}

struct Shape {
  std::int64_t seq;
  std::int64_t head_dim;
};

}  // namespace

int main() {
  const Shape shapes[] = {{128, 8}, {128, 32}, {256, 8},
                          {256, 32}, {512, 8}, {512, 32}};
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
      const Tensor q = Tensor::Randn(s, h, 0.5, rng);
      const Tensor k = Tensor::Randn(s, h, 0.5, rng);
      const Tensor v = Tensor::Randn(s, h, 0.5, rng);
      const Tensor dout = Tensor::Randn(s, h, 0.5, rng);
      Tensor a(s, h), b(s, h), c(s, h);
      const std::string op = std::string(dir.name) + "_s" +
                             std::to_string(s) + "_d" +
                             std::to_string(shape.head_dim);
      const int reps = s >= 512 ? 5 : 10;

      ThreadPool::SetGlobalThreads(1);
      const double ref_ms = memo::bench::BestWallMs(
          reps, [&] { dir.reference(q, k, v, dout, &a, &b, &c); });
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
            reps, [&] { dir.optimized(q, k, v, dout, &a, &b, &c); });
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
