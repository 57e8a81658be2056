#include "train/tensor.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "common/thread_pool.h"
#include "train/tensor_arena.h"

namespace memo::train {
namespace {

float* AlignedHeapAlloc(std::int64_t floats) {
  // 64-byte alignment with the size rounded up to a multiple of the
  // alignment, as std::aligned_alloc requires.
  const std::size_t bytes =
      (static_cast<std::size_t>(floats) * sizeof(float) + 63) / 64 * 64;
  void* ptr = std::aligned_alloc(64, bytes);
  MEMO_CHECK(ptr != nullptr) << "allocating " << bytes << " B";
  return static_cast<float*>(ptr);
}

/// Elements per chunk of the pooled fills. No fill's values depend on the
/// chunking, so the grains only trade dispatch cost against balance: a
/// Gaussian costs tens of nanoseconds (a log, a cos and a sqrt), so a chunk
/// of 1024 is tens of microseconds of work; a zero costs a fraction of a
/// nanosecond, so a chunk of 16384 is 64 KiB of memset.
constexpr std::int64_t kGaussianGrain = 1024;
constexpr std::int64_t kZeroGrain = 16384;

/// Runs fn(data, index, n) over every element of `tensors` as one loop on
/// the pool, chunked by `grain` over their concatenation: `data` points at
/// n consecutive elements of one tensor, the first of which is element
/// `index` of the concatenation. A chunk that crosses a tensor's end makes
/// one call per tensor.
void ForEachRange(
    const std::vector<Tensor*>& tensors, std::int64_t grain,
    const std::function<void(float*, std::int64_t, std::int64_t)>& fn) {
  std::vector<std::int64_t> starts(tensors.size() + 1, 0);
  for (std::size_t t = 0; t < tensors.size(); ++t) {
    starts[t + 1] = starts[t] + tensors[t]->size();
  }
  ThreadPool::Global().ParallelFor(
      0, starts.back(), grain, [&](std::int64_t lo, std::int64_t hi) {
        // The last tensor starting at or before lo (empty ones are skipped).
        std::size_t t = static_cast<std::size_t>(
            std::upper_bound(starts.begin(), starts.end(), lo) -
            starts.begin() - 1);
        for (; lo < hi; ++t) {
          const std::int64_t end = std::min(hi, starts[t + 1]);
          if (end > lo) fn(tensors[t]->data() + (lo - starts[t]), lo, end - lo);
          lo = end;
        }
      });
}

}  // namespace

void FillZeros(const std::vector<Tensor*>& tensors) {
  ForEachRange(tensors, kZeroGrain,
               [](float* data, std::int64_t, std::int64_t n) {
                 std::memset(data, 0, static_cast<std::size_t>(n) *
                                          sizeof(float));
               });
}

void FillGaussian(const std::vector<Tensor*>& tensors, double stddev,
                  Rng& rng) {
  const Rng start = rng;
  std::int64_t total = 0;
  for (const Tensor* t : tensors) total += t->size();
  ForEachRange(tensors, kGaussianGrain,
               [&start, stddev](float* data, std::int64_t index,
                                std::int64_t n) {
                 Rng chunk = start;
                 chunk.Skip(2 * static_cast<std::uint64_t>(index));
                 for (std::int64_t i = 0; i < n; ++i) {
                   data[i] = static_cast<float>(chunk.NextGaussian() * stddev);
                 }
               });
  rng.Skip(2 * static_cast<std::uint64_t>(total));
}

Tensor::Tensor(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  MEMO_CHECK_GE(rows, 0);
  MEMO_CHECK_GE(cols, 0);
  AllocateBuffer();
  if (data_ != nullptr) {
    std::memset(data_, 0, static_cast<std::size_t>(size()) * sizeof(float));
  }
}

Tensor Tensor::Uninitialized(std::int64_t rows, std::int64_t cols) {
  MEMO_CHECK_GE(rows, 0);
  MEMO_CHECK_GE(cols, 0);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.AllocateBuffer();
  return t;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  AllocateBuffer();
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_,
                static_cast<std::size_t>(size()) * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // Same element count: reuse the existing buffer (keeps the arena's
  // replayed allocation sequence stable across steps).
  if (size() != other.size()) {
    Release();
    rows_ = other.rows_;
    cols_ = other.cols_;
    AllocateBuffer();
  } else {
    rows_ = other.rows_;
    cols_ = other.cols_;
  }
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_,
                static_cast<std::size_t>(size()) * sizeof(float));
  }
  return *this;
}

Tensor Tensor::Randn(std::int64_t rows, std::int64_t cols, double stddev,
                     Rng& rng) {
  Tensor t = Uninitialized(rows, cols);
  FillGaussian({&t}, stddev, rng);
  return t;
}

void Tensor::AllocateBuffer() {
  if (size() <= 0) {
    data_ = nullptr;
    arena_ = nullptr;
    return;
  }
  const std::int64_t bytes = size() * static_cast<std::int64_t>(sizeof(float));
  if (TensorArena* arena = TensorArena::Current()) {
    TensorArena::Allocation a = arena->Allocate(bytes);
    data_ = static_cast<float*>(a.ptr);
    arena_ = a.from_arena ? arena : nullptr;
    return;
  }
  data_ = AlignedHeapAlloc(size());
  arena_ = nullptr;
}

void Tensor::Release() {
  if (data_ == nullptr) return;
  if (arena_ != nullptr) {
    arena_->NoteFree(data_);
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  arena_ = nullptr;
}

}  // namespace memo::train
