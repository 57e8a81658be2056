// Kernel-table conformance: every KernelTable entry against the naive
// reference formulas, at every dispatch tier this build + CPU can execute.
//
//  - ScalarKernels() must be bit-identical to the reference loops (it is
//    the MEMO_SIMD=scalar exactness anchor for the whole training stack).
//  - The vectorized tables must agree within the documented tolerances:
//    elementwise acc/add are bit-exact at every level (one rounded op
//    per element), FMA-contracted and reduction kernels within a small
//    relative bound, transcendental kernels (gelu, softmax, cross-entropy)
//    within the polynomial-exp/erf bound.
//  - Sizes sweep 1 .. vector_width + 1 (16-wide AVX-512 plus one) so every
//    remainder-lane path — scalar tails and masked tails — is exercised,
//    plus larger sizes for the unrolled main loops.

#include "train/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/simd.h"

namespace memo::train::kernels {
namespace {

bool CpuHas(SimdLevel level) {
  return static_cast<int>(CpuSimdLevel()) >= static_cast<int>(level);
}

// Every table compiled in AND executable on this machine, with the scalar
// anchor always first.
std::vector<const KernelTable*> ExecutableTables() {
  std::vector<const KernelTable*> tables = {&ScalarKernels()};
#ifdef MEMO_HAVE_AVX2_KERNELS
  if (CpuHas(SimdLevel::kAvx2)) tables.push_back(&Avx2Kernels());
#endif
#ifdef MEMO_HAVE_AVX512_KERNELS
  if (CpuHas(SimdLevel::kAvx512)) tables.push_back(&Avx512Kernels());
#endif
  return tables;
}

// 1..17 covers every tail/mask path at widths 8 and 16; the
// larger sizes hit the 4x-unrolled main loops with and without remainders.
const std::int64_t kSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                               12, 13, 14, 15, 16, 17, 31, 32, 33, 64, 100};

std::vector<float> RandomVec(std::int64_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// |a - b| <= atol + rtol * |b|, with b the scalar-table truth.
void ExpectClose(float a, float b, double atol, double rtol,
                 const char* what, std::int64_t n) {
  EXPECT_LE(std::abs(static_cast<double>(a) - b), atol + rtol * std::abs(b))
      << what << " diverged at n=" << n << ": " << a << " vs " << b;
}

// The documented per-call bound for reordered float reductions and the
// polynomial transcendentals, scaled generously for accumulation length.
constexpr double kAtol = 1e-4;
constexpr double kRtol = 1e-4;

TEST(SimdKernelsTest, TablesReportTheirLevel) {
  EXPECT_EQ(ScalarKernels().level, SimdLevel::kScalar);
#ifdef MEMO_HAVE_AVX2_KERNELS
  EXPECT_EQ(Avx2Kernels().level, SimdLevel::kAvx2);
#endif
#ifdef MEMO_HAVE_AVX512_KERNELS
  EXPECT_EQ(Avx512Kernels().level, SimdLevel::kAvx512);
#endif
}

TEST(SimdKernelsTest, ActiveFollowsScopedLevelWithClamping) {
  {
    ScopedSimdLevel pin(SimdLevel::kScalar);
    EXPECT_EQ(Active().level, SimdLevel::kScalar);
  }
  {
    // A request above the CPU/build ceiling clamps down, never up.
    ScopedSimdLevel pin(SimdLevel::kAvx512);
    EXPECT_LE(static_cast<int>(Active().level),
              static_cast<int>(CpuSimdLevel()));
  }
}

TEST(SimdKernelsTest, ScalarElementwiseMatchesReferenceBitExact) {
  const KernelTable& k = ScalarKernels();
  for (std::int64_t n : kSizes) {
    const auto x = RandomVec(n, 10 + static_cast<std::uint32_t>(n));
    const auto y0 = RandomVec(n, 20 + static_cast<std::uint32_t>(n));

    auto y = y0;
    k.acc(y.data(), x.data(), n);
    for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(y[i], y0[i] + x[i]);

    std::vector<float> out(n);
    k.add(out.data(), x.data(), y0.data(), n);
    for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(out[i], x[i] + y0[i]);

    // Reductions: the scalar kernels accumulate i-ascending in float,
    // exactly like the reference ops.
    float ref_sum = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) ref_sum += x[i];
    EXPECT_EQ(k.sum(x.data(), n), ref_sum);

    const float mean = ref_sum / static_cast<float>(n);
    float ref_ssq = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float d = x[i] - mean;
      ref_ssq += d * d;
    }
    EXPECT_EQ(k.sumsq_centered(x.data(), mean, n), ref_ssq);
  }
}

TEST(SimdKernelsTest, ScalarGemmAndGeluMatchReferenceBitExact) {
  const KernelTable& k = ScalarKernels();
  for (std::int64_t n : kSizes) {
    const auto w0 = RandomVec(n, 1);
    const auto w1 = RandomVec(n, 2);
    const auto w2 = RandomVec(n, 3);
    const auto w3 = RandomVec(n, 4);
    const auto y0 = RandomVec(n, 5);

    // A k = 4 accumulate tile over one row: y[c] += 0.1 w0[c] + ... in that
    // per-element order, the reference's i-ascending accumulation.
    const std::int64_t nr = std::min(n, kGemmNR);
    std::vector<float> panel(4 * nr);
    for (std::int64_t c = 0; c < nr; ++c) {
      panel[c] = w0[c];
      panel[nr + c] = w1[c];
      panel[2 * nr + c] = w2[c];
      panel[3 * nr + c] = w3[c];
    }
    const float xs[4] = {0.1f, 0.2f, 0.3f, 0.4f};
    auto y = y0;
    k.gemm_tile(xs, 0, 1, panel.data(), 4, 1, nr, y.data(), nr, nullptr,
                /*accumulate=*/true, nullptr);
    for (std::int64_t i = 0; i < nr; ++i) {
      float v = y0[i];
      v += 0.1f * w0[i];
      v += 0.2f * w1[i];
      v += 0.3f * w2[i];
      v += 0.4f * w3[i];
      EXPECT_EQ(y[i], v);
    }

    std::vector<float> gelu(n);
    k.gelu_fwd(y0.data(), gelu.data(), n);
    std::vector<float> dgelu(n);
    k.gelu_bwd(y0.data(), w0.data(), dgelu.data(), n);
    constexpr float kInvSqrt2 = 0.70710678118654752f;
    constexpr float kInvSqrt2Pi = 0.39894228040143268f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float cdf = 0.5f * (1.0f + std::erf(y0[i] * kInvSqrt2));
      const float pdf = kInvSqrt2Pi * std::exp(-0.5f * y0[i] * y0[i]);
      EXPECT_EQ(gelu[i], y0[i] * cdf);
      EXPECT_EQ(dgelu[i], w0[i] * (cdf + y0[i] * pdf));
    }
  }
}

TEST(SimdKernelsTest, ExactElementwiseKernelsBitIdenticalAtEveryLevel) {
  // acc/add perform one rounded op per element at every width — the
  // KernelTable header promises bit-identity across ALL levels, which the
  // residual-stream adds in mini_gpt.cc rely on.
  for (const KernelTable* table : ExecutableTables()) {
    for (std::int64_t n : kSizes) {
      const auto x = RandomVec(n, 100 + static_cast<std::uint32_t>(n));
      const auto y0 = RandomVec(n, 200 + static_cast<std::uint32_t>(n));

      auto got = y0;
      auto want = y0;
      table->acc(got.data(), x.data(), n);
      ScalarKernels().acc(want.data(), x.data(), n);
      EXPECT_EQ(got, want) << "acc level="
                           << SimdLevelName(table->level) << " n=" << n;

      std::vector<float> got_add(n), want_add(n);
      table->add(got_add.data(), x.data(), y0.data(), n);
      ScalarKernels().add(want_add.data(), x.data(), y0.data(), n);
      EXPECT_EQ(got_add, want_add)
          << "add level=" << SimdLevelName(table->level) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, SimdTablesMatchScalarWithinTolerance) {
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : ExecutableTables()) {
    if (table->level == SimdLevel::kScalar) continue;
    for (std::int64_t n : kSizes) {
      const auto x = RandomVec(n, 300 + static_cast<std::uint32_t>(n));
      const auto y0 = RandomVec(n, 400 + static_cast<std::uint32_t>(n));

      ExpectClose(table->sum(x.data(), n), ref.sum(x.data(), n), kAtol, kRtol,
                  "sum", n);
      const float mean = ref.sum(x.data(), n) / static_cast<float>(n);
      ExpectClose(table->sumsq_centered(x.data(), mean, n),
                  ref.sumsq_centered(x.data(), mean, n), kAtol, kRtol,
                  "sumsq_centered", n);

      std::vector<float> got_g(n), want_g(n);
      table->gelu_fwd(x.data(), got_g.data(), n);
      ref.gelu_fwd(x.data(), want_g.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got_g[i], want_g[i], kAtol, kRtol, "gelu_fwd", n);
      }
      table->gelu_bwd(x.data(), y0.data(), got_g.data(), n);
      ref.gelu_bwd(x.data(), y0.data(), want_g.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got_g[i], want_g[i], kAtol, kRtol, "gelu_bwd", n);
      }
    }
  }
}

TEST(SimdKernelsTest, LayerNormKernelsMatchScalarWithinTolerance) {
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : ExecutableTables()) {
    if (table->level == SimdLevel::kScalar) continue;
    for (std::int64_t n : kSizes) {
      const auto x = RandomVec(n, 500 + static_cast<std::uint32_t>(n));
      const auto dy = RandomVec(n, 600 + static_cast<std::uint32_t>(n));
      const auto g = RandomVec(n, 700 + static_cast<std::uint32_t>(n));
      const auto b = RandomVec(n, 800 + static_cast<std::uint32_t>(n));
      const float mean = ref.sum(x.data(), n) / static_cast<float>(n);
      const float var =
          ref.sumsq_centered(x.data(), mean, n) / static_cast<float>(n);
      const float inv = 1.0f / std::sqrt(var + 1e-5f);
      const float inv_n = 1.0f / static_cast<float>(n);

      std::vector<float> got(n), want(n);
      table->ln_apply(x.data(), g.data(), b.data(), mean, inv, got.data(), n);
      ref.ln_apply(x.data(), g.data(), b.data(), mean, inv, want.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got[i], want[i], kAtol, kRtol, "ln_apply", n);
      }

      float got_s0, got_s1, want_s0, want_s1;
      table->ln_bwd_reduce(x.data(), dy.data(), g.data(), mean, inv, n,
                           &got_s0, &got_s1);
      ref.ln_bwd_reduce(x.data(), dy.data(), g.data(), mean, inv, n, &want_s0,
                        &want_s1);
      ExpectClose(got_s0, want_s0, kAtol, kRtol, "ln_bwd_reduce s0", n);
      ExpectClose(got_s1, want_s1, kAtol, kRtol, "ln_bwd_reduce s1", n);

      table->ln_bwd_apply(x.data(), dy.data(), g.data(), mean, inv, inv_n,
                          want_s0, want_s1, got.data(), n);
      ref.ln_bwd_apply(x.data(), dy.data(), g.data(), mean, inv, inv_n,
                       want_s0, want_s1, want.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got[i], want[i], kAtol, kRtol, "ln_bwd_apply", n);
      }

      // dg/db accumulate; also exercise the nullable variants.
      std::vector<float> got_dg(n, 0.5f), got_db(n, 0.25f);
      std::vector<float> want_dg(n, 0.5f), want_db(n, 0.25f);
      table->ln_bwd_dgdb(x.data(), dy.data(), mean, inv, got_dg.data(),
                         got_db.data(), n);
      ref.ln_bwd_dgdb(x.data(), dy.data(), mean, inv, want_dg.data(),
                      want_db.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got_dg[i], want_dg[i], kAtol, kRtol, "ln_bwd_dgdb dg", n);
        ExpectClose(got_db[i], want_db[i], kAtol, kRtol, "ln_bwd_dgdb db", n);
      }
      table->ln_bwd_dgdb(x.data(), dy.data(), mean, inv, got_dg.data(),
                         nullptr, n);
      table->ln_bwd_dgdb(x.data(), dy.data(), mean, inv, nullptr,
                         got_db.data(), n);
    }
  }
}

// ---- Packed attention kernels. The packed layout is K^T (and V^T) per head,
// kt[i*ldk + c] = k[c][i], zero-padded to whole 64-key blocks, plus
// contiguous V rows for the forward (vp[c*d + i] = v[c][i]). Sequence
// lengths sweep the 64-key block and 4-row tile boundaries; head dims sweep
// vector-width tails (3, 33), whole vectors (8, 16, 64) and a head wider
// than the SIMD register tile (100).

const std::int64_t kAttnSeqs[] = {1, 2, 5, 17, 63, 64, 65, 129, 200, 320};
const std::int64_t kAttnDims[] = {3, 8, 16, 33, 64, 100};

std::int64_t PaddedKeys(std::int64_t kv) {
  return (kv + kAttnKeyBlock - 1) / kAttnKeyBlock * kAttnKeyBlock;
}

/// One head of causal attention: rows of q/k/v/dout are `d` wide at row
/// stride `stride` (heads interleaved along the row).
struct AttnHead {
  std::int64_t s, d, stride, ldk;
  float scale;
  std::vector<float> q, k, v, dout;
  std::vector<float> kt, vt, vp;  // packed panels (ldk = padded + 64)

  AttnHead(std::int64_t seq, std::int64_t dim, std::uint32_t seed)
      : s(seq),
        d(dim),
        stride(2 * dim + 1),
        ldk(PaddedKeys(seq) + kAttnKeyBlock),
        scale(1.0f / std::sqrt(static_cast<float>(dim))),
        q(RandomVec(seq * stride, seed)),
        k(RandomVec(seq * stride, seed + 1)),
        v(RandomVec(seq * stride, seed + 2)),
        dout(RandomVec(seq * stride, seed + 3)),
        kt(d * ldk, 0.0f),
        vt(d * ldk, 0.0f),
        vp(s * d) {
    for (std::int64_t c = 0; c < s; ++c) {
      for (std::int64_t i = 0; i < d; ++i) {
        kt[i * ldk + c] = k[c * stride + i];
        vt[i * ldk + c] = v[c * stride + i];
        vp[c * d + i] = v[c * stride + i];
      }
    }
  }
};

/// The reference formulas of train/reference_ops, spelled out per head:
/// probabilities, dS, the output, its log-sum-exp (max + log denominator)
/// and all three gradients.
struct NaiveAttn {
  std::vector<float> out, lse, dq, dk, dv;

  explicit NaiveAttn(const AttnHead& h)
      : out(h.s * h.d, 0.0f),
        lse(h.s),
        dq(h.s * h.d, 0.0f),
        dk(h.s * h.d, 0.0f),
        dv(h.s * h.d, 0.0f) {
    for (std::int64_t r = 0; r < h.s; ++r) {
      const float* qr = &h.q[r * h.stride];
      const float* dr = &h.dout[r * h.stride];
      std::vector<float> p(r + 1), ds(r + 1);
      float max_score = -1e30f;
      for (std::int64_t c = 0; c <= r; ++c) {
        float score = 0.0f;
        for (std::int64_t i = 0; i < h.d; ++i) {
          score += qr[i] * h.k[c * h.stride + i];
        }
        score *= h.scale;
        p[c] = score;
        if (score > max_score) max_score = score;
      }
      float denom = 0.0f;
      for (std::int64_t c = 0; c <= r; ++c) {
        p[c] = std::exp(p[c] - max_score);
        denom += p[c];
      }
      lse[r] = max_score + std::log(denom);
      const float inv = 1.0f / denom;
      for (std::int64_t c = 0; c <= r; ++c) p[c] *= inv;
      float dot_p_dp = 0.0f;
      for (std::int64_t c = 0; c <= r; ++c) {
        float dp = 0.0f;
        for (std::int64_t i = 0; i < h.d; ++i) {
          dp += dr[i] * h.v[c * h.stride + i];
          out[r * h.d + i] += p[c] * h.v[c * h.stride + i];
          dv[c * h.d + i] += p[c] * dr[i];
        }
        ds[c] = dp;
        dot_p_dp += p[c] * dp;
      }
      for (std::int64_t c = 0; c <= r; ++c) {
        const float g = p[c] * (ds[c] - dot_p_dp) * h.scale;
        for (std::int64_t i = 0; i < h.d; ++i) {
          dq[r * h.d + i] += g * h.k[c * h.stride + i];
          dk[c * h.d + i] += g * qr[i];
        }
      }
    }
  }
};

/// One table's outputs for a head: the forward (out and lse) in row tiles
/// of `tile` rows, and the backward fed with the table's own out and lse.
/// The lse lands at a row stride of 3 and every output starts as NaN, so
/// a kernel that reads or skips an output shows.
struct TableAttn {
  std::vector<float> out, lse, dq, dk, dv;

  TableAttn(const KernelTable& t, const AttnHead& h,
            std::int64_t tile = kAttnRowTile)
      : out(h.s * h.d, kNaN),
        lse(h.s),
        dq(h.s * h.d, kNaN),
        dk(h.s * h.d, kNaN),
        dv(h.s * h.d, kNaN) {
    constexpr std::int64_t kLdl = 3;
    std::vector<float> lse_strided(h.s * kLdl, kNaN);
    std::vector<float> scratch(
        std::max(h.ldk, AttnBwdScratchFloats(h.s, h.d)), kNaN);
    for (std::int64_t r0 = 0; r0 < h.s; r0 += tile) {
      t.attn_fwd_rows(h.q.data(), h.stride, h.kt.data(), h.ldk, h.vp.data(),
                      r0, std::min(tile, h.s - r0), h.d, h.scale, out.data(),
                      h.d, lse_strided.data(), kLdl, scratch.data());
    }
    for (std::int64_t r = 0; r < h.s; ++r) lse[r] = lse_strided[r * kLdl];
    // The backward reads out at the q/k/dout row stride.
    std::vector<float> out_strided(h.s * h.stride, kNaN);
    for (std::int64_t r = 0; r < h.s; ++r) {
      std::copy(&out[r * h.d], &out[r * h.d] + h.d, &out_strided[r * h.stride]);
    }
    t.attn_bwd(h.q.data(), h.k.data(), h.dout.data(), out_strided.data(),
               h.stride, h.kt.data(), h.vt.data(), h.ldk, lse_strided.data(),
               kLdl, h.s, 0, h.s, h.d, h.scale, dq.data(), dk.data(),
               dv.data(), h.d, scratch.data());
  }

  static constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
};

TEST(SimdKernelsTest, PackedAttentionScalarBitExactVsUnpacked) {
  // The scalar packed kernels re-order loops (i-outer scores, key-block
  // outer dk/dv) but keep every per-element accumulation sequence of the
  // reference formulas over the unpacked rows. Bit-equality, no tolerance.
  for (std::int64_t d : kAttnDims) {
    for (std::int64_t s : kAttnSeqs) {
      SCOPED_TRACE(::testing::Message() << "s=" << s << " d=" << d);
      const AttnHead head(s, d, 51 * static_cast<std::uint32_t>(s + d));
      const NaiveAttn want(head);
      const TableAttn got(ScalarKernels(), head);
      EXPECT_EQ(got.out, want.out) << "attn_fwd_rows out";
      EXPECT_EQ(got.lse, want.lse) << "attn_fwd_rows lse";
      EXPECT_EQ(got.dq, want.dq) << "attn_bwd dq";
      EXPECT_EQ(got.dk, want.dk) << "attn_bwd dk";
      EXPECT_EQ(got.dv, want.dv) << "attn_bwd dv";
    }
  }
}

TEST(SimdKernelsTest, PackedAttentionSimdMatchesScalarWithinTolerance) {
  // The forward at every SIMD tier: out and the log-sum-exp within the
  // kernel tolerance of the scalar table, and the row tiling invisible.
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : ExecutableTables()) {
    if (table->level == SimdLevel::kScalar) continue;
    for (std::int64_t d : kAttnDims) {
      for (std::int64_t s : kAttnSeqs) {
        SCOPED_TRACE(::testing::Message() << SimdLevelName(table->level)
                                          << " s=" << s << " d=" << d);
        const AttnHead head(s, d, 61 * static_cast<std::uint32_t>(s + d));
        const TableAttn want(ref, head);
        const TableAttn got(*table, head);
        const TableAttn single_rows(*table, head, 1);
        EXPECT_EQ(single_rows.out, got.out) << "attn_fwd_rows tiling";
        EXPECT_EQ(single_rows.lse, got.lse) << "attn_fwd_rows tiling";
        for (std::int64_t j = 0; j < s * d; ++j) {
          ExpectClose(got.out[j], want.out[j], kAtol, kRtol,
                      "attn_fwd_rows out", s);
        }
        for (std::int64_t r = 0; r < s; ++r) {
          ExpectClose(got.lse[r], want.lse[r], kAtol, kRtol,
                      "attn_fwd_rows lse", s);
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AttentionKernelsMatchScalarAcrossShapes) {
  // The one-pass backward at every SIMD tier against the scalar table's
  // two passes. Each gradient element sums up to s products, so the bound
  // scales with the accumulation length like the GEMM tolerance does.
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : ExecutableTables()) {
    if (table->level == SimdLevel::kScalar) continue;
    for (std::int64_t d : kAttnDims) {
      for (std::int64_t s : kAttnSeqs) {
        SCOPED_TRACE(::testing::Message() << SimdLevelName(table->level)
                                          << " s=" << s << " d=" << d);
        const AttnHead head(s, d, 71 * static_cast<std::uint32_t>(s + d));
        const TableAttn want(ref, head);
        const TableAttn got(*table, head);
        const double atol = kAtol * static_cast<double>(s + d);
        for (std::int64_t j = 0; j < s * d; ++j) {
          ExpectClose(got.dq[j], want.dq[j], atol, kRtol, "attn_bwd dq", s);
          ExpectClose(got.dk[j], want.dk[j], atol, kRtol, "attn_bwd dk", s);
          ExpectClose(got.dv[j], want.dv[j], atol, kRtol, "attn_bwd dv", s);
        }
      }
    }
  }
}

TEST(SimdKernelsTest, AttentionKernelsHoldPeakedScores) {
  // Queries scaled so each row's scores span hundreds of units: exp
  // arguments fall below -88.38, where the Cephes exp clamps, and below
  // -127 in base 2, past 2^-126, the smallest normal float, and past the
  // clamp of AVX2's exponent injection, next to the -1e30 of masked lanes.
  // Every tier stays finite and within the kernel tolerance of the scalar
  // table, forward and backward.
  constexpr float kPeak = 100.0f;
  const KernelTable& ref = ScalarKernels();
  for (std::int64_t d : kAttnDims) {
    for (std::int64_t s : {std::int64_t{65}, std::int64_t{200}}) {
      SCOPED_TRACE(::testing::Message() << "s=" << s << " d=" << d);
      AttnHead head(s, d, 81 * static_cast<std::uint32_t>(s + d));
      for (float& x : head.q) x *= kPeak;
      double lowest = 0.0;  // min over rows and keys of score - row max
      for (std::int64_t r = 0; r < s; ++r) {
        std::vector<double> scores(r + 1);
        for (std::int64_t c = 0; c <= r; ++c) {
          double dot = 0.0;
          for (std::int64_t i = 0; i < d; ++i) {
            dot += static_cast<double>(head.q[r * head.stride + i]) *
                   head.k[c * head.stride + i];
          }
          scores[c] = dot * head.scale;
        }
        const double top = *std::max_element(scores.begin(), scores.end());
        for (double x : scores) lowest = std::min(lowest, x - top);
      }
      ASSERT_LT(lowest, -88.38);
      ASSERT_LT(lowest, -127.0 * std::log(2.0));
      const TableAttn want(ref, head);
      for (const KernelTable* table : ExecutableTables()) {
        if (table->level == SimdLevel::kScalar) continue;
        SCOPED_TRACE(SimdLevelName(table->level));
        const TableAttn got(*table, head);
        const double atol = kAtol * static_cast<double>(s + d);
        for (std::int64_t r = 0; r < s; ++r) {
          ASSERT_TRUE(std::isfinite(got.lse[r])) << "lse row " << r;
          ExpectClose(got.lse[r], want.lse[r], kAtol, kRtol,
                      "attn_fwd_rows lse", s);
        }
        for (std::int64_t j = 0; j < s * d; ++j) {
          ASSERT_TRUE(std::isfinite(got.out[j]) && std::isfinite(got.dq[j]) &&
                      std::isfinite(got.dk[j]) && std::isfinite(got.dv[j]))
              << "element " << j;
          ExpectClose(got.out[j], want.out[j], kAtol, kRtol,
                      "attn_fwd_rows out", s);
          ExpectClose(got.dq[j], want.dq[j], atol, kRtol, "attn_bwd dq", s);
          ExpectClose(got.dk[j], want.dk[j], atol, kRtol, "attn_bwd dk", s);
          ExpectClose(got.dv[j], want.dv[j], atol, kRtol, "attn_bwd dv", s);
        }
      }
    }
  }
}

// ---- Packed-panel GEMM microkernel. B is a [k x nr] k-major panel; A is a
// strided view (row stride + column stride) so both the forward (rows of
// ln_out) and the dw transpose (columns of x) shapes are covered.

void NaiveGemmTile(const float* a, std::int64_t ars, std::int64_t acs,
                   const float* b, std::int64_t k, std::int64_t mr,
                   std::int64_t nr, float* c, std::int64_t ldc,
                   const float* bias, bool accumulate) {
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) {
      float acc = accumulate ? c[r * ldc + j]
                             : (bias != nullptr ? bias[j] : 0.0f);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[r * ars + kk * acs] * b[kk * nr + j];
      }
      c[r * ldc + j] = acc;
    }
  }
}

TEST(SimdKernelsTest, GemmTileScalarBitExactAgainstNaive) {
  const KernelTable& t = ScalarKernels();
  const std::int64_t ks[] = {1, 7, 33};
  const std::int64_t nrs[] = {1, 5, 8, 16, 63, 64};
  for (std::int64_t k : ks) {
    for (std::int64_t nr : nrs) {
      for (std::int64_t mr = 1; mr <= kGemmMR; ++mr) {
        const std::int64_t ldc = nr + 2;
        const auto a =
            RandomVec(mr * k, 73 * static_cast<std::uint32_t>(k + nr + mr));
        const auto b =
            RandomVec(k * nr, 79 * static_cast<std::uint32_t>(k + nr + mr));
        const auto bias =
            RandomVec(nr, 83 * static_cast<std::uint32_t>(k + nr + mr));
        const auto c0 =
            RandomVec(mr * ldc, 89 * static_cast<std::uint32_t>(k + nr + mr));
        struct View {
          std::int64_t ars, acs;
        };
        // Row-major A (forward) and transposed A (the dw path's view).
        const View views[] = {{k, 1}, {1, mr}};
        for (const View& view : views) {
          for (int mode = 0; mode < 3; ++mode) {
            const bool accumulate = mode == 2;
            const float* bp = mode == 1 ? bias.data() : nullptr;
            auto got = c0;
            auto want = c0;
            t.gemm_tile(a.data(), view.ars, view.acs, b.data(), k, mr, nr,
                        got.data(), ldc, bp, accumulate, nullptr);
            NaiveGemmTile(a.data(), view.ars, view.acs, b.data(), k, mr, nr,
                          want.data(), ldc, bp, accumulate);
            EXPECT_EQ(got, want) << "gemm_tile k=" << k << " nr=" << nr
                                 << " mr=" << mr << " mode=" << mode
                                 << " ars=" << view.ars;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, GemmTileSimdMatchesScalarWithinTolerance) {
  const KernelTable& ref = ScalarKernels();
  const std::int64_t ks[] = {1, 7, 33};
  const std::int64_t nrs[] = {1, 5, 8, 16, 31, 63, 64};
  for (const KernelTable* table : ExecutableTables()) {
    if (table->level == SimdLevel::kScalar) continue;
    for (std::int64_t k : ks) {
      for (std::int64_t nr : nrs) {
        for (std::int64_t mr = 1; mr <= kGemmMR; ++mr) {
          const std::int64_t ldc = nr;
          const auto a = RandomVec(
              mr * k, 97 * static_cast<std::uint32_t>(k + nr + mr));
          const auto b = RandomVec(
              k * nr, 101 * static_cast<std::uint32_t>(k + nr + mr));
          const auto bias =
              RandomVec(nr, 103 * static_cast<std::uint32_t>(k + nr + mr));
          const auto c0 = RandomVec(
              mr * ldc, 107 * static_cast<std::uint32_t>(k + nr + mr));
          for (int mode = 0; mode < 3; ++mode) {
            const bool accumulate = mode == 2;
            const float* bp = mode == 1 ? bias.data() : nullptr;
            auto got = c0;
            auto want = c0;
            table->gemm_tile(a.data(), k, 1, b.data(), k, mr, nr, got.data(),
                             ldc, bp, accumulate, nullptr);
            ref.gemm_tile(a.data(), k, 1, b.data(), k, mr, nr, want.data(),
                          ldc, bp, accumulate, nullptr);
            for (std::int64_t i = 0; i < mr * ldc; ++i) {
              ExpectClose(got[i], want[i], kAtol, kRtol, "gemm_tile simd",
                          nr);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FusedGeluEpilogueBitIdenticalToUnfusedPerLevel) {
  // The fusion contract ops.cc relies on: running gelu_fwd tile-slice-wise
  // inside gemm_tile must equal computing the full C row and then one
  // gelu_fwd call over the whole row — at the SAME level, bit for bit.
  // Holds because column tiles start at multiples of kGemmNR (64), a
  // multiple of every vector width, so the vector-body/tail split of each
  // slice coincides with the corresponding span of the full-row call.
  const std::int64_t k = 16;
  const std::int64_t ns[] = {64, 100, 128, 130};  // incl. odd tails
  for (const KernelTable* table : ExecutableTables()) {
    for (std::int64_t n : ns) {
      const std::int64_t mr = kGemmMR;
      const auto a = RandomVec(mr * k, 109 * static_cast<std::uint32_t>(n));
      const auto bmat = RandomVec(k * n, 113 * static_cast<std::uint32_t>(n));
      const auto bias = RandomVec(n, 127 * static_cast<std::uint32_t>(n));
      // Pack B into kGemmNR-wide panels (panel for [j0, j0+nr) at k*j0).
      std::vector<float> bpack(k * n);
      for (std::int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
        const std::int64_t nr = std::min(kGemmNR, n - j0);
        for (std::int64_t kk = 0; kk < k; ++kk) {
          std::copy(bmat.begin() + kk * n + j0,
                    bmat.begin() + kk * n + j0 + nr,
                    bpack.begin() + k * j0 + kk * nr);
        }
      }
      std::vector<float> c_fused(mr * n), gelu_fused(mr * n);
      std::vector<float> c_plain(mr * n), gelu_unfused(mr * n);
      for (std::int64_t j0 = 0; j0 < n; j0 += kGemmNR) {
        const std::int64_t nr = std::min(kGemmNR, n - j0);
        table->gemm_tile(a.data(), k, 1, bpack.data() + k * j0, k, mr, nr,
                         c_fused.data() + j0, n, bias.data() + j0, false,
                         gelu_fused.data() + j0);
        table->gemm_tile(a.data(), k, 1, bpack.data() + k * j0, k, mr, nr,
                         c_plain.data() + j0, n, bias.data() + j0, false,
                         nullptr);
      }
      EXPECT_EQ(c_fused, c_plain)
          << "epilogue changed C, level=" << SimdLevelName(table->level);
      for (std::int64_t r = 0; r < mr; ++r) {
        table->gelu_fwd(c_plain.data() + r * n, gelu_unfused.data() + r * n,
                        n);
      }
      EXPECT_EQ(gelu_fused, gelu_unfused)
          << "fused gelu diverged, level=" << SimdLevelName(table->level)
          << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, CrossEntropyRowMatchesScalar) {
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : ExecutableTables()) {
    for (std::int64_t n : {2, 7, 16, 17, 100, 256}) {
      const auto logits = RandomVec(n, 900 + static_cast<std::uint32_t>(n));
      const int target = static_cast<int>(n / 2);
      const float inv_rows = 1.0f / 8.0f;

      std::vector<float> got_dl(n), want_dl(n);
      const double got =
          table->ce_row(logits.data(), n, target, inv_rows, got_dl.data());
      const double want =
          ref.ce_row(logits.data(), n, target, inv_rows, want_dl.data());
      EXPECT_NEAR(got, want, kAtol + kRtol * std::abs(want));
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(got_dl[i], want_dl[i], kAtol, kRtol, "ce_row dl", n);
      }
      // Loss-only variant (null gradient) must agree with itself.
      EXPECT_EQ(table->ce_row(logits.data(), n, target, inv_rows, nullptr),
                got);
    }
  }
}

TEST(SimdKernelsTest, AdamUpdateMatchesScalarWithinTolerance) {
  const KernelTable& ref = ScalarKernels();
  const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
  const double bias1 = 1.0 - std::pow(beta1, 3);
  const double bias2 = 1.0 - std::pow(beta2, 3);
  for (const KernelTable* table : ExecutableTables()) {
    for (std::int64_t n : kSizes) {
      const auto g = RandomVec(n, 1000 + static_cast<std::uint32_t>(n));
      auto p_got = RandomVec(n, 1100), m_got = RandomVec(n, 1200),
           v_got = RandomVec(n, 1300);
      for (float& v : v_got) v = std::abs(v);  // second moments are >= 0
      auto p_want = p_got, m_want = m_got, v_want = v_got;

      table->adam_update(p_got.data(), m_got.data(), v_got.data(), g.data(),
                         n, beta1, beta2, lr, eps, bias1, bias2);
      ref.adam_update(p_want.data(), m_want.data(), v_want.data(), g.data(),
                      n, beta1, beta2, lr, eps, bias1, bias2);
      for (std::int64_t i = 0; i < n; ++i) {
        ExpectClose(p_got[i], p_want[i], kAtol, kRtol, "adam p", n);
        ExpectClose(m_got[i], m_want[i], kAtol, kRtol, "adam m", n);
        ExpectClose(v_got[i], v_want[i], kAtol, kRtol, "adam v", n);
      }
    }
  }
}

}  // namespace
}  // namespace memo::train::kernels
