#include "train/tensor.h"

#include <cstdlib>
#include <cstring>

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

}  // namespace

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
  Tensor t(rows, cols);
  for (std::int64_t i = 0, n = t.size(); i < n; ++i) {
    t.data_[i] = static_cast<float>(rng.NextGaussian() * stddev);
  }
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
