#ifndef MEMO_TRAIN_KERNELS_KERNELS_H_
#define MEMO_TRAIN_KERNELS_KERNELS_H_

#include <cstdint>

#include "common/simd.h"

namespace memo::train::kernels {

/// Register block of the packed GEMM microkernel (`gemm_tile`): up to
/// kGemmMR rows of A against a B panel of up to kGemmNR columns per call.
/// kGemmNR is a multiple of every vector width (8/16), which the fused GELU
/// epilogue's bit-exactness argument relies on: column tiles start at
/// multiples of kGemmNR, so the vector-body/scalar-tail split of a tile
/// slice coincides with the split of a whole-row gelu_fwd call.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 64;

/// Key block of the attention kernels: panels are padded to a multiple of
/// it, and the backward accumulates dk/dv one block of keys at a time.
inline constexpr std::int64_t kAttnKeyBlock = 64;
/// Query rows per register tile of the attention kernels.
inline constexpr std::int64_t kAttnRowTile = 4;

/// Floats of scratch `attn_bwd` needs for one head of s rows and head dim
/// d, with s rounded up to whole key blocks: the scalar path's row stats
/// and score rows (5 s), the SIMD path's D column and a key block's dK^T
/// and dV^T (s + 2 * kAttnKeyBlock * d).
inline std::int64_t AttnBwdScratchFloats(std::int64_t s, std::int64_t d) {
  const std::int64_t padded =
      (s + kAttnKeyBlock - 1) / kAttnKeyBlock * kAttnKeyBlock;
  return 5 * padded + 2 * kAttnKeyBlock * d;
}

/// The microkernel vocabulary of the training op layer: every inner loop of
/// ops.cc / adam.cc is one of these, dispatched per process to the scalar,
/// AVX2 (8-wide + FMA) or AVX-512 (16-wide) implementation.
///
/// Contracts shared by every implementation (and relied on by token-wise
/// recomputation, which replays arbitrary row subsets):
///  - Row independence: a kernel's result depends only on its operands and
///    `n`, never on which chunk or row range the caller is processing, so
///    recomputing one row reproduces it bit for bit at any dispatch level.
///  - The scalar table is bit-identical to train/reference_ops for every
///    kernel (test-enforced); the elementwise kernels below are
///    bit-identical at EVERY level because they perform the same
///    per-element arithmetic, just on wider registers.
///  - The SIMD reductions/transcendentals are deterministic for a fixed
///    level (fixed-shape lane reduction trees, polynomial exp/erf) but only
///    match the reference within tolerance: accumulation order differs and
///    exp/erf are Cephes/Abramowitz-Stegun approximations, attention's exp
///    a base-2 polynomial (|rel err| ~1e-6 per call; simd_kernels_test
///    documents and enforces the bounds).
struct KernelTable {
  SimdLevel level = SimdLevel::kScalar;

  // ---- Elementwise kernels: one add per element, so lane width cannot
  // change rounding and both are bit-identical at EVERY level.
  /// y[i] += x[i].
  void (*acc)(float* y, const float* x, std::int64_t n);
  /// out[i] = a[i] + b[i].
  void (*add)(float* out, const float* a, const float* b, std::int64_t n);

  // ---- GEMM inner kernel (FMA on SIMD paths: the intermediate products
  // are not rounded, so results differ from scalar in the last ulp).
  /// Packed-panel register-blocked GEMM tile:
  ///   C[r][j] (+)= sum_k A(r, k) * b[k*nr + j]
  /// for r < mr (<= kGemmMR), j < nr (<= kGemmNR), where
  /// A(r, k) = a[r*a_row_stride + k*a_col_stride] (a strided view: rows of
  /// x, or a column walk for the dw transpose case) and `b` is a column
  /// panel packed k-major by the ops layer. Every C element accumulates
  /// k-ascending — the reference per-element order — so the result is
  /// independent of the surrounding row/column tiling and the scalar table
  /// stays bit-identical to reference_ops. Initial tile value: `c` itself
  /// when `accumulate`, else bias[j] broadcast down rows when `bias` is
  /// non-null, else zero. When `gelu_out` is non-null, the finished tile
  /// rows additionally receive this level's gelu_fwd into gelu_out (same
  /// ldc): fused == gemm-then-gelu_fwd bit for bit at every level.
  void (*gemm_tile)(const float* a, std::int64_t a_row_stride,
                    std::int64_t a_col_stride, const float* b, std::int64_t k,
                    std::int64_t mr, std::int64_t nr, float* c,
                    std::int64_t ldc, const float* bias, bool accumulate,
                    float* gelu_out);

  // ---- LayerNorm.
  float (*sum)(const float* x, std::int64_t n);
  /// sum_i (x[i] - mean)^2.
  float (*sumsq_centered)(const float* x, float mean, std::int64_t n);
  /// y[i] = (x[i] - mean) * inv * g[i] + b[i].
  void (*ln_apply)(const float* x, const float* g, const float* b, float mean,
                   float inv, float* y, std::int64_t n);
  /// sum_dy_g = sum dy[i]*g[i]; sum_dy_g_xhat = sum dy[i]*g[i]*xhat[i].
  void (*ln_bwd_reduce)(const float* x, const float* dy, const float* g,
                        float mean, float inv, std::int64_t n, float* sum_dy_g,
                        float* sum_dy_g_xhat);
  /// dx[i] = inv * (dy[i]*g[i] - inv_n*sum_dy_g - xhat*inv_n*sum_dy_g_xhat).
  void (*ln_bwd_apply)(const float* x, const float* dy, const float* g,
                       float mean, float inv, float inv_n, float sum_dy_g,
                       float sum_dy_g_xhat, float* dx, std::int64_t n);
  /// dg[i] += dy[i]*xhat[i]; db[i] += dy[i] (either may be null).
  void (*ln_bwd_dgdb)(const float* x, const float* dy, float mean, float inv,
                      float* dg, float* db, std::int64_t n);

  // ---- GELU (exact-erf formulation, matching reference_ops).
  void (*gelu_fwd)(const float* x, float* y, std::int64_t n);
  void (*gelu_bwd)(const float* x, const float* dy, float* dx, std::int64_t n);

  // ---- Attention over packed per-head panels. The ops layer transposes
  // each head's keys and values into d x ldk panels `kt`/`vt` (key c at
  // column c) and, for the forward, packs values contiguously as
  // vp[c*d + i]. Panels are padded with zero columns to a multiple of
  // kAttnKeyBlock (ldk >= kv rounded up), so SIMD paths always load whole
  // 64-key blocks and mask the causal tail in registers.
  //
  // Scalar paths follow train/reference_ops' per-element order exactly: the
  // score dot is i-ascending, the softmax is the exact two-pass one, sum
  // P.dP and dq accumulate c-ascending, and dk/dv accumulate r-ascending.
  // SIMD paths are deterministic for a fixed level and shape.

  /// Causal attention output rows [r0, r0 + nr) of one head
  /// (nr <= kAttnRowTile): out_r = softmax(q_r . K[0..r] * scale) @ V, and
  /// lse[r*ldl] = log sum_c exp(scale * q_r . k_c), the row's log-sum-exp
  /// (max + log of the denominator), in natural-log units at every level.
  /// `q`/`out` point at the head's first column of row 0 (row strides ldq
  /// and ldo). SIMD paths stream 64-key blocks through a running max /
  /// rescaled accumulator (FlashAttention-2 style) with the rows as one
  /// register tile and each row's P.V accumulator in registers, so no
  /// score row is ever materialized. The tile's running max and normalizer
  /// are one register, row r in lane group r: one fixed four-row lane tree
  /// reduces the rows' block maxima and sums, and one base-2 exp
  /// (exponent scale * log2(e) * S - m, folded into one FMA) gives all four
  /// rescale factors and every probability. Only a key slice in which a
  /// lane can pass row r0's last key is masked (the diagonal block). Head
  /// dims beyond the register budget fall back to a two-pass row in
  /// `scratch` (caller-provided, >= r0 + nr rounded up to kAttnKeyBlock
  /// floats).
  void (*attn_fwd_rows)(const float* q, std::int64_t ldq, const float* kt,
                        std::int64_t ldk, const float* vp, std::int64_t r0,
                        std::int64_t nr, std::int64_t d, float scale,
                        float* out, std::int64_t ldo, float* lse,
                        std::int64_t ldl, float* scratch);
  /// Backward of one head's keys [c_begin, c_end) (c_begin a multiple of
  /// kAttnKeyBlock, c_end one too or s): writes their dk and dv rows (key
  /// c at dk + c*ldo) and the range's share of dq (the sum over its keys)
  /// for rows [c_begin, s), row r at dq + (r - c_begin)*ldo, from q, k,
  /// dout and the forward's `out` (row strides ldq) and log-sum-exp
  /// (lse[r*ldl]). Only the range's columns of the panels are read. SIMD
  /// paths run FlashAttention-2's one pass: D_r = dout_r . out_r, then per
  /// 64-key block, over the query tiles that see it,
  /// P = 2^(S scale log2(e) - lse log2(e)), dP = dout . V^T and
  /// dS = P (dP - D) scale, accumulating dV^T and dK^T in `scratch` in
  /// ascending r and adding dS . K into dq, four keys at a time, key block
  /// by ascending key block. P is masked only in a key slice in which a
  /// lane can pass the tile's first row's last key, and throughout the
  /// ragged last tile, whose rows past s alias row s - 1 and must add
  /// nothing to dk and dv. The scalar path takes the whole head only
  /// (c_begin 0, c_end s) and ignores `k`, `out` and `lse`: it keeps the
  /// reference's two passes (softmax, D = sum_c P dP and dq per row, then
  /// dk/dv per key block), so it stays bit-identical to reference_ops.
  /// `scratch` holds AttnBwdScratchFloats(s, d) floats.
  void (*attn_bwd)(const float* q, const float* k, const float* dout,
                   const float* out, std::int64_t ldq, const float* kt,
                   const float* vt, std::int64_t ldk, const float* lse,
                   std::int64_t ldl, std::int64_t s, std::int64_t c_begin,
                   std::int64_t c_end, std::int64_t d, float scale, float* dq,
                   float* dk, float* dv, std::int64_t ldo, float* scratch);

  // ---- Softmax cross-entropy, one row of logits. Returns the row loss
  // (log-sum-exp minus target logit) and fills d_logits when non-null.
  double (*ce_row)(const float* logits, std::int64_t n, int target,
                   float inv_rows, float* dlogits);

  // ---- Adam. The scalar path keeps the reference double-precision moment
  // math; SIMD paths run the same formula in float (documented tolerance).
  void (*adam_update)(float* p, float* m, float* v, const float* g,
                      std::int64_t n, double beta1, double beta2, double lr,
                      double eps, double bias1, double bias2);
};

/// The table for `level`, clamped down to what this build compiled and this
/// CPU can execute (e.g. requesting avx512 on an AVX2-only host yields the
/// avx2 table; on a non-x86 build, scalar).
const KernelTable& TableForLevel(SimdLevel level);

/// The table for the process-wide requested level (common/simd.h): what the
/// op layer actually runs. `Active().level` is the ground truth reported in
/// bench JSON.
const KernelTable& Active();

// Per-level tables (TableForLevel handles clamping; these are exposed so
// simd_kernels_test can address a specific implementation).
const KernelTable& ScalarKernels();
#ifdef MEMO_HAVE_AVX2_KERNELS
const KernelTable& Avx2Kernels();
#endif
#ifdef MEMO_HAVE_AVX512_KERNELS
const KernelTable& Avx512Kernels();
#endif

}  // namespace memo::train::kernels

#endif  // MEMO_TRAIN_KERNELS_KERNELS_H_
