// Scalar microkernels: the dispatch floor and the bit-exactness anchor.
// Every loop here reproduces the floating-point evaluation order of
// train/reference_ops.cc exactly (test-enforced), so MEMO_SIMD=scalar keeps
// the whole training stack bit-identical to the naive reference at any
// thread count. The only liberties taken are loop orders that do not change
// any per-element rounding sequence (e.g. the i-outer packed score loop).

#include <algorithm>
#include <cmath>

#include "train/kernels/kernels.h"

namespace memo::train::kernels {
namespace {

void Acc(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void Add(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

float Dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void GeluFwd(const float* x, float* y, std::int64_t n);

void GemmTile(const float* a, std::int64_t ars, std::int64_t acs,
              const float* b, std::int64_t k, std::int64_t mr, std::int64_t nr,
              float* c, std::int64_t ldc, const float* bias, bool accumulate,
              float* gelu_out) {
  float tile[kGemmMR][kGemmNR];
  for (std::int64_t r = 0; r < mr; ++r) {
    float* tr = tile[r];
    if (accumulate) {
      std::copy(c + r * ldc, c + r * ldc + nr, tr);
    } else if (bias != nullptr) {
      std::copy(bias, bias + nr, tr);
    } else {
      std::fill(tr, tr + nr, 0.0f);
    }
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bk = b + kk * nr;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[r * ars + kk * acs];
      float* __restrict tr = tile[r];
      for (std::int64_t j = 0; j < nr; ++j) tr[j] += av * bk[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    std::copy(tile[r], tile[r] + nr, c + r * ldc);
  }
  if (gelu_out != nullptr) {
    for (std::int64_t r = 0; r < mr; ++r) {
      GeluFwd(c + r * ldc, gelu_out + r * ldc, nr);
    }
  }
}

float Sum(const float* x, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

float SumsqCentered(const float* x, float mean, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = x[i] - mean;
    acc += d * d;
  }
  return acc;
}

void LnApply(const float* x, const float* g, const float* b, float mean,
             float inv, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = (x[i] - mean) * inv * g[i] + b[i];
  }
}

void LnBwdReduce(const float* x, const float* dy, const float* g, float mean,
                 float inv, std::int64_t n, float* sum_dy_g,
                 float* sum_dy_g_xhat) {
  float s0 = 0.0f;
  float s1 = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float dyg = dy[i] * g[i];
    s0 += dyg;
    s1 += dyg * xhat;
  }
  *sum_dy_g = s0;
  *sum_dy_g_xhat = s1;
}

void LnBwdApply(const float* x, const float* dy, const float* g, float mean,
                float inv, float inv_n, float sum_dy_g, float sum_dy_g_xhat,
                float* dx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float xhat = (x[i] - mean) * inv;
    const float dyg = dy[i] * g[i];
    dx[i] = inv * (dyg - inv_n * sum_dy_g - xhat * inv_n * sum_dy_g_xhat);
  }
}

void LnBwdDgdb(const float* x, const float* dy, float mean, float inv,
               float* dg, float* db, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (dg != nullptr) dg[i] += dy[i] * ((x[i] - mean) * inv);
    if (db != nullptr) db[i] += dy[i];
  }
}

constexpr float kInvSqrt2 = 0.70710678118654752f;
constexpr float kInvSqrt2Pi = 0.39894228040143268f;

void GeluFwd(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] * 0.5f * (1.0f + std::erf(x[i] * kInvSqrt2));
  }
}

void GeluBwd(const float* x, const float* dy, float* dx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float cdf = 0.5f * (1.0f + std::erf(x[i] * kInvSqrt2));
    const float pdf = kInvSqrt2Pi * std::exp(-0.5f * x[i] * x[i]);
    dx[i] = dy[i] * (cdf + x[i] * pdf);
  }
}

/// Packed scores: i-outer over the K^T panel accumulates each score[c] in
/// the same i-ascending add sequence as the reference dot, with the scale
/// applied once at the end — bit-identical to the reference score row.
void AttnScoresPacked(const float* qr, const float* kt, std::int64_t ldk,
                      std::int64_t kv, std::int64_t d, float scale,
                      float* scores) {
  std::fill(scores, scores + kv, 0.0f);
  for (std::int64_t i = 0; i < d; ++i) {
    const float qv = qr[i];
    const float* __restrict ktr = kt + i * ldk;
    for (std::int64_t c = 0; c < kv; ++c) scores[c] += qv * ktr[c];
  }
  for (std::int64_t c = 0; c < kv; ++c) scores[c] *= scale;
}

/// The reference's exact two-pass causal softmax over the packed K^T
/// panel; also reports the row max and the denominator it normalized with.
void AttnProbsPacked(const float* qr, const float* kt, std::int64_t ldk,
                     std::int64_t kv, std::int64_t d, float scale,
                     float* probs, float* row_max, float* row_denom) {
  AttnScoresPacked(qr, kt, ldk, kv, d, scale, probs);
  float max_score = -1e30f;
  for (std::int64_t c = 0; c < kv; ++c) {
    if (probs[c] > max_score) max_score = probs[c];
  }
  float denom = 0.0f;
  for (std::int64_t c = 0; c < kv; ++c) {
    probs[c] = std::exp(probs[c] - max_score);
    denom += probs[c];
  }
  const float inv = 1.0f / denom;
  for (std::int64_t c = 0; c < kv; ++c) probs[c] *= inv;
  *row_max = max_score;
  *row_denom = denom;
}

void AttnFwdRows(const float* q, std::int64_t ldq, const float* kt,
                 std::int64_t ldk, const float* vp, std::int64_t r0,
                 std::int64_t nr, std::int64_t d, float scale, float* out,
                 std::int64_t ldo, float* lse, std::int64_t ldl,
                 float* scratch) {
  for (std::int64_t r = r0; r < r0 + nr; ++r) {
    float row_max;
    float row_denom;
    AttnProbsPacked(q + r * ldq, kt, ldk, r + 1, d, scale, scratch, &row_max,
                    &row_denom);
    lse[r * ldl] = row_max + std::log(row_denom);
    float* outr = out + r * ldo;
    std::fill(outr, outr + d, 0.0f);
    for (std::int64_t c = 0; c <= r; ++c) {
      const float p = scratch[c];
      const float* __restrict vc = vp + c * d;
      for (std::int64_t i = 0; i < d; ++i) outr[i] += p * vc[i];
    }
  }
}

/// Backward pass 1 of query row r: the reference's softmax, dP with scale
/// 1.0f (`*= 1.0f` is exact), D = sum P.dP and dS, all c-ascending, and the
/// dq row as c-ascending dots over the packed K^T rows (the reference's
/// axpy chain from zero). Saves the row's max, 1/denominator and D to
/// `st` for pass 2; `probs` and `ds` hold r + 1 floats.
void AttnBwdRow(const float* qr, const float* dr, const float* kt,
                const float* vt, std::int64_t ldk, std::int64_t r,
                std::int64_t d, float scale, float* dqr, float* st,
                float* probs, float* ds) {
  const std::int64_t kv = r + 1;
  float row_denom;
  AttnProbsPacked(qr, kt, ldk, kv, d, scale, probs, &st[0], &row_denom);
  st[1] = 1.0f / row_denom;
  AttnScoresPacked(dr, vt, ldk, kv, d, 1.0f, ds);
  const float dot_p_dp = Dot(probs, ds, kv);
  for (std::int64_t c = 0; c < kv; ++c) {
    ds[c] = probs[c] * (ds[c] - dot_p_dp) * scale;
  }
  for (std::int64_t i = 0; i < d; ++i) dqr[i] = Dot(ds, kt + i * ldk, kv);
  st[2] = dot_p_dp;
}

/// Backward pass 2 for the key block [c0, c0 + bn): walks the query rows
/// r in [c0, s) and writes dk and dv for the block's keys, each
/// accumulated in ascending r like the reference. P and dS are rebuilt from
/// pass 1's stats (row r at stats + 3r) with the reference's expressions,
/// so each term is bit-identical too.
void AttnBwdKvBlock(const float* q, const float* dout, std::int64_t ldq,
                    const float* kt, const float* vt, std::int64_t ldk,
                    const float* stats, std::int64_t s, std::int64_t c0,
                    std::int64_t bn, std::int64_t d, float scale, float* dk,
                    float* dv, std::int64_t ldo) {
  for (std::int64_t c = c0; c < c0 + bn; ++c) {
    std::fill(dk + c * ldo, dk + c * ldo + d, 0.0f);
    std::fill(dv + c * ldo, dv + c * ldo + d, 0.0f);
  }
  for (std::int64_t r = c0; r < s; ++r) {
    const float* qr = q + r * ldq;
    const float* dr = dout + r * ldq;
    const float row_max = stats[3 * r];
    const float row_inv = stats[3 * r + 1];
    const float dot_p_dp = stats[3 * r + 2];
    const std::int64_t cn = std::min(bn, r - c0 + 1);
    for (std::int64_t c = c0; c < c0 + cn; ++c) {
      float score = 0.0f;
      float dp = 0.0f;
      for (std::int64_t i = 0; i < d; ++i) {
        score += qr[i] * kt[i * ldk + c];
        dp += dr[i] * vt[i * ldk + c];
      }
      score *= scale;
      const float p = std::exp(score - row_max) * row_inv;
      const float ds = p * (dp - dot_p_dp) * scale;
      float* __restrict dkc = dk + c * ldo;
      float* __restrict dvc = dv + c * ldo;
      for (std::int64_t i = 0; i < d; ++i) {
        dvc[i] += p * dr[i];
        dkc[i] += ds * qr[i];
      }
    }
  }
}

/// The scalar backward keeps the reference's two passes over the whole
/// head (its dq rows are one c-ascending chain, so it takes no key range):
/// the saved output and log-sum-exp would give P and D in another rounding,
/// so P is rebuilt from the exact softmax and D = sum P.dP is reduced
/// c-ascending, which is what keeps MEMO_SIMD=scalar bit-identical to
/// reference_ops.
void AttnBwd(const float* q, const float* /*k*/, const float* dout,
             const float* /*out*/, std::int64_t ldq, const float* kt,
             const float* vt, std::int64_t ldk, const float* /*lse*/,
             std::int64_t /*ldl*/, std::int64_t s, std::int64_t /*c_begin*/,
             std::int64_t /*c_end*/, std::int64_t d, float scale, float* dq,
             float* dk, float* dv, std::int64_t ldo, float* scratch) {
  float* stats = scratch;
  float* probs = scratch + 3 * s;
  float* ds = probs + s;
  for (std::int64_t r = 0; r < s; ++r) {
    AttnBwdRow(q + r * ldq, dout + r * ldq, kt, vt, ldk, r, d, scale,
               dq + r * ldo, stats + 3 * r, probs, ds);
  }
  for (std::int64_t c0 = 0; c0 < s; c0 += kAttnKeyBlock) {
    AttnBwdKvBlock(q, dout, ldq, kt, vt, ldk, stats, s, c0,
                   std::min(kAttnKeyBlock, s - c0), d, scale, dk, dv, ldo);
  }
}

double CeRow(const float* lr, std::int64_t n, int target, float inv_rows,
             float* dl) {
  float max_logit = -1e30f;
  for (std::int64_t c = 0; c < n; ++c) {
    if (lr[c] > max_logit) max_logit = lr[c];
  }
  double denom = 0.0;
  for (std::int64_t c = 0; c < n; ++c) {
    denom += std::exp(static_cast<double>(lr[c] - max_logit));
  }
  if (dl != nullptr) {
    for (std::int64_t c = 0; c < n; ++c) {
      const float p = static_cast<float>(
          std::exp(static_cast<double>(lr[c] - max_logit)) / denom);
      dl[c] = (p - (c == target ? 1.0f : 0.0f)) * inv_rows;
    }
  }
  return std::log(denom) - (lr[target] - max_logit);
}

void AdamUpdate(float* p, float* m, float* v, const float* g, std::int64_t n,
                double beta1, double beta2, double lr, double eps,
                double bias1, double bias2) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float gi = g[i];
    m[i] = static_cast<float>(beta1 * m[i] + (1.0 - beta1) * gi);
    v[i] = static_cast<float>(beta2 * v[i] + (1.0 - beta2) * gi * gi);
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    p[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      .level = SimdLevel::kScalar,
      .acc = &Acc,
      .add = &Add,
      .gemm_tile = &GemmTile,
      .sum = &Sum,
      .sumsq_centered = &SumsqCentered,
      .ln_apply = &LnApply,
      .ln_bwd_reduce = &LnBwdReduce,
      .ln_bwd_apply = &LnBwdApply,
      .ln_bwd_dgdb = &LnBwdDgdb,
      .gelu_fwd = &GeluFwd,
      .gelu_bwd = &GeluBwd,
      .attn_fwd_rows = &AttnFwdRows,
      .attn_bwd = &AttnBwd,
      .ce_row = &CeRow,
      .adam_update = &AdamUpdate,
  };
  return table;
}

}  // namespace memo::train::kernels
