#ifndef MEMO_TRAIN_OPS_H_
#define MEMO_TRAIN_OPS_H_

#include <cstdint>
#include <vector>

#include "train/tensor.h"

namespace memo::train {

/// Hand-written forward/backward primitives for the mini-GPT. Every forward
/// computes each output row independently of which other rows are being
/// computed (pure row-wise data flow for the token-parallel ops), which is
/// the property MEMO's token-wise recomputation relies on: recomputing a
/// row slice reproduces bit-identical values.
///
/// All ops run on the shared ThreadPool (common/thread_pool.h) with fixed
/// chunk boundaries and a per-element floating-point accumulation order
/// that matches the single-threaded reference kernels
/// (train/reference_ops.h) exactly — outputs are bit-identical for every
/// pool size, including MEMO_THREADS=1.
///
/// Output contract: every output argument is written in full — on the
/// op's rows [row_begin, row_end) for a *Rows variant, whose other rows it
/// leaves untouched — and never read first (unless the caller passes it as
/// an input too, as AddRows allows), so callers allocate outputs with
/// Tensor::Uninitialized. The only outputs accumulated into are the
/// parameter gradients dw, db and dg of the backward ops and
/// EmbeddingBackward's table: those must hold a value (zero, or the sum so
/// far) on entry.

/// Which kernel implementations the public ops dispatch to. kReference
/// selects the original naive serial loops (benchmark baseline and
/// bit-exactness oracle); kOptimized (default) selects the tiled,
/// thread-pool-parallel kernels.
enum class KernelMode { kOptimized, kReference };
void SetKernelMode(KernelMode mode);

/// y[r] = x[r] * W + b, for rows [row_begin, row_end) only.
/// W is [in, out]; b is [1, out] (may be empty for no bias).
void LinearForwardRows(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::int64_t row_begin, std::int64_t row_end,
                       Tensor* y);

/// Full-matrix convenience wrapper.
void LinearForward(const Tensor& x, const Tensor& w, const Tensor& b,
                   Tensor* y);

/// Backward of y = x W + b: accumulates into dw/db, writes dx.
void LinearBackward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* db);

/// LayerNorm with scale g and bias bta over the last dimension; stores the
/// per-row inverse stddev in `rstd` ([rows, 1]) for backward.
void LayerNormForwardRows(const Tensor& x, const Tensor& g, const Tensor& b,
                          std::int64_t row_begin, std::int64_t row_end,
                          Tensor* y, Tensor* rstd);
void LayerNormForward(const Tensor& x, const Tensor& g, const Tensor& b,
                      Tensor* y, Tensor* rstd);

/// LayerNorm backward; needs the forward input x, scale g and stored rstd.
void LayerNormBackward(const Tensor& x, const Tensor& g, const Tensor& rstd,
                       const Tensor& dy, Tensor* dx, Tensor* dg, Tensor* db);

/// Fused LayerNorm -> Linear -> GELU over rows [row_begin, row_end): the
/// MLP's pre-activation chain in one pass. Produces exactly what the
/// unfused LayerNormForwardRows + LinearForwardRows + GeluForwardRows
/// sequence produces (bit-identical at every kernel tier — the GELU
/// epilogue runs tile-wise inside the GEMM, and tile boundaries fall on
/// multiples of the vector width), but the fc pre-activation tile is still
/// register/L1-resident when the epilogue reads it, eliminating two full
/// activation-tensor round trips through memory. All four outputs are
/// written (ln_out and fc_out are needed by the backward pass).
void LayerNormLinearGeluForwardRows(const Tensor& x, const Tensor& g,
                                    const Tensor& bln, const Tensor& w,
                                    const Tensor& bfc, std::int64_t row_begin,
                                    std::int64_t row_end, Tensor* ln_out,
                                    Tensor* ln_rstd, Tensor* fc_out,
                                    Tensor* gelu_out);

/// Exact (tanh-free) GELU: x * 0.5 * (1 + erf(x / sqrt(2))).
void GeluForwardRows(const Tensor& x, std::int64_t row_begin,
                     std::int64_t row_end, Tensor* y);
void GeluForward(const Tensor& x, Tensor* y);
void GeluBackward(const Tensor& x, const Tensor& dy, Tensor* dx);

/// out = a + b on rows [row_begin, row_end): one rounded add per element,
/// so every SIMD level gives the reference loop's bits and the op has no
/// reference twin. `out` may be `a` or `b`: y += x on rows [0, s) is
/// AddRows(y, x, 0, s, &y).
void AddRows(const Tensor& a, const Tensor& b, std::int64_t row_begin,
             std::int64_t row_end, Tensor* out);

/// Causal multi-head attention over one sequence: q, k, v are [s, h] with
/// `heads` heads of dimension h/heads. Probabilities are NOT stored —
/// backward recomputes them from q and k, exactly like FlashAttention. With
/// `lse` ([s, heads]) it also writes each row's softmax log-sum-exp per
/// head, the statistic the backward rebuilds the probabilities from.
void AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      int heads, Tensor* out, Tensor* lse = nullptr);
/// Backward from the forward's saved output `out` and log-sum-exp `lse`
/// (FlashAttention-2): writes dq, dk and dv.
void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& out, const Tensor& lse,
                       const Tensor& dout, Tensor* dq, Tensor* dk, Tensor* dv);
/// The same backward without saved statistics: runs the forward for `out`
/// and `lse` first.
void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv);

/// Softmax cross entropy against integer targets; returns mean loss and
/// writes d_logits (already divided by the row count).
double CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor* d_logits);

/// Embedding lookup: rows of `table` selected by `tokens`.
void EmbeddingForward(const Tensor& table, const std::vector<int>& tokens,
                      Tensor* out);
/// Scatter-add of dy into the embedding gradient.
void EmbeddingBackward(const std::vector<int>& tokens, const Tensor& dy,
                       Tensor* dtable);

}  // namespace memo::train

#endif  // MEMO_TRAIN_OPS_H_
