#ifndef MEMO_TRAIN_REFERENCE_OPS_H_
#define MEMO_TRAIN_REFERENCE_OPS_H_

#include <cstdint>
#include <vector>

#include "train/tensor.h"

namespace memo::train::reference {

/// The original single-threaded, non-tiled training kernels, kept verbatim
/// as the ground truth the optimized kernels in ops.cc are validated
/// against. The optimized paths preserve the per-element floating-point
/// accumulation order of these loops, so tests assert bit-identical outputs
/// (Tensor::ExactlyEquals), not approximate ones. Benchmarks use them as
/// the serial baseline for speedup_vs_serial.

void LinearForwardRows(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::int64_t row_begin, std::int64_t row_end,
                       Tensor* y);
void LinearForward(const Tensor& x, const Tensor& w, const Tensor& b,
                   Tensor* y);
void LinearBackward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* db);

void LayerNormForwardRows(const Tensor& x, const Tensor& g, const Tensor& b,
                          std::int64_t row_begin, std::int64_t row_end,
                          Tensor* y, Tensor* rstd);
void LayerNormForward(const Tensor& x, const Tensor& g, const Tensor& b,
                      Tensor* y, Tensor* rstd);
void LayerNormBackward(const Tensor& x, const Tensor& g, const Tensor& rstd,
                       const Tensor& dy, Tensor* dx, Tensor* dg, Tensor* db);

void GeluForwardRows(const Tensor& x, std::int64_t row_begin,
                     std::int64_t row_end, Tensor* y);
void GeluForward(const Tensor& x, Tensor* y);
void GeluBackward(const Tensor& x, const Tensor& dy, Tensor* dx);

void AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      int heads, Tensor* out, Tensor* lse = nullptr);
void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv);

double CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor* d_logits);

void EmbeddingForward(const Tensor& table, const std::vector<int>& tokens,
                      Tensor* out);
void EmbeddingBackward(const std::vector<int>& tokens, const Tensor& dy,
                       Tensor* dtable);

}  // namespace memo::train::reference

#endif  // MEMO_TRAIN_REFERENCE_OPS_H_
