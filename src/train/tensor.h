#ifndef MEMO_TRAIN_TENSOR_H_
#define MEMO_TRAIN_TENSOR_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace memo::train {

class TensorArena;

/// A minimal dense float32 matrix/vector for the numeric training substrate.
/// Row-major [rows, cols]; a vector is [1, cols] or [rows, 1] as convenient.
/// The buffer is 64-byte aligned (SIMD kernels use unaligned loads, but
/// alignment keeps them on the fast path) and, inside an ArenaScope, comes
/// from the step-scoped TensorArena instead of the heap — the training hot
/// loop performs zero per-iteration heap allocations once the arena's plan
/// is committed. The numerics stay exact and reproducible either way.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::int64_t rows, std::int64_t cols);  // zero-filled

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        arena_(std::exchange(other.arena_, nullptr)),
        rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)) {}
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      arena_ = std::exchange(other.arena_, nullptr);
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
    }
    return *this;
  }
  ~Tensor() { Release(); }

  static Tensor Zeros(std::int64_t rows, std::int64_t cols) {
    return Tensor(rows, cols);
  }

  /// Allocates without the zero fill: for op outputs and scratch that are
  /// fully written before any read (the output contract of train/ops.h;
  /// GEMM panel packing). Same arena-backed allocation path as the
  /// zero-filled constructor, so the arena's replayed allocation sequence
  /// is unaffected by which factory a step uses.
  static Tensor Uninitialized(std::int64_t rows, std::int64_t cols);

  /// Gaussian init scaled by `stddev` from a deterministic RNG (one
  /// FillGaussian).
  static Tensor Randn(std::int64_t rows, std::int64_t cols, double stddev,
                      Rng& rng);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& at(std::int64_t r, std::int64_t c) { return data_[r * cols_ + c]; }
  float at(std::int64_t r, std::int64_t c) const {
    return data_[r * cols_ + c];
  }
  float* row(std::int64_t r) { return data_ + r * cols_; }
  const float* row(std::int64_t r) const { return data_ + r * cols_; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  void Fill(float value) {
    for (std::int64_t i = 0, n = size(); i < n; ++i) data_[i] = value;
  }

  /// Exact element-wise equality (the convergence experiment asserts
  /// bit-identical losses across alpha values).
  bool ExactlyEquals(const Tensor& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    for (std::int64_t i = 0, n = size(); i < n; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }

 private:
  /// Allocates size() floats (arena-backed inside an ArenaScope, otherwise
  /// 64-byte-aligned heap). Does not initialize the contents.
  void AllocateBuffer();
  void Release();

  float* data_ = nullptr;
  /// Non-null iff data_ must be returned to this arena (otherwise data_ is
  /// a plain aligned heap block freed with std::free).
  TensorArena* arena_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
};

/// Sets every element of `tensors` to 0, as one loop on the pool.
void FillZeros(const std::vector<Tensor*>& tensors);

/// Fills `tensors`, in order, with the values serial
/// `static_cast<float>(rng.NextGaussian() * stddev)` calls would give, one
/// element at a time, and leaves `rng` where those calls would. It runs as
/// one loop on the pool: element k of the concatenation draws from stream
/// position 2k (Rng::Skip), so the bits do not depend on the pool size.
void FillGaussian(const std::vector<Tensor*>& tensors, double stddev,
                  Rng& rng);

}  // namespace memo::train

#endif  // MEMO_TRAIN_TENSOR_H_
