#include "train/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/scratch.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "train/kernels/kernels.h"
#include "train/reference_ops.h"

namespace memo::train {

namespace {

std::atomic<KernelMode> g_kernel_mode{KernelMode::kOptimized};

bool UseReference() {
  return g_kernel_mode.load(std::memory_order_relaxed) ==
         KernelMode::kReference;
}

/// Fixed chunk sizes — part of the determinism contract: boundaries depend
/// only on the loop extent, never on the pool size, so every pool size
/// (including the serial fallback) produces bit-identical tensors.
/// (LoopHint coarsening multiplies these grains by a factor that is itself
/// a pure function of the loop extent, so the contract holds for hinted
/// loops too.)
constexpr std::int64_t kRowGrain = 16;      // row-wise elementwise/norm ops
constexpr std::int64_t kGemmRowBlock = 32;  // GEMM row tile (cache block)
constexpr std::int64_t kColGrain = 64;      // column-chunked reductions
constexpr std::int64_t kAttnRowGrain = 8;   // attention query rows
// Sample rows per dw pass over a panel: a 128 x kGemmNR slice of dy (32 KiB)
// stays in L1 while every 4-row tile of the dw block consumes it.
constexpr std::int64_t kDwRowBlock = 128;

constexpr float kLnEps = 1e-5f;  // matches reference_ops

// ---- Packed GEMM panels. B is packed once per op call into k-major column
// panels of kGemmNR columns (panel for columns [j0, j0+nr) lives at offset
// k*j0 — previous panels are all full width). The panel scratch is an
// arena-backed Tensor, so steady-state steps pack into the planned slab
// with zero heap traffic. Packing runs on the pool: a work item is one
// panel by one block of kPackRowBlock k-rows, and writes its own slice.
constexpr std::int64_t kPackRowBlock = 128;

/// Packs columns [j0, j0+nr) of the row-major [k x n] matrix `src`
/// (leading dimension ld) into bp[kk*nr + j].
void PackPanelFromRows(const float* src, std::int64_t ld, std::int64_t k,
                       std::int64_t j0, std::int64_t nr, float* bp) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(bp + kk * nr, src + kk * ld + j0,
                static_cast<std::size_t>(nr) * sizeof(float));
  }
}

/// Transpose pack: panel column j is row (j0+j) of `src` ([n x k]
/// row-major, leading dimension ld): bp[kk*nr + j] = src[(j0+j)*ld + kk].
/// The panel is written in order; the nr source rows it gathers from stay
/// cached across consecutive kk.
void PackPanelFromCols(const float* src, std::int64_t ld, std::int64_t k,
                       std::int64_t j0, std::int64_t nr, float* bp) {
  const float* s = src + j0 * ld;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    float* __restrict dst = bp + kk * nr;
    for (std::int64_t j = 0; j < nr; ++j) dst[j] = s[j * ld + kk];
  }
}

/// All panels of B, packed on the pool: the row-major [k x n] matrix `src`
/// (leading dimension ld), or with `transposed` the transpose of the
/// row-major [n x k] matrix `src`. The loop is hinted by bytes moved (a
/// 4-byte read and write per element), so a pack too small to pay for a
/// dispatch stays inline.
Tensor PackAllPanels(const float* src, std::int64_t ld, std::int64_t k,
                     std::int64_t n, bool transposed) {
  Tensor pack = Tensor::Uninitialized(1, k * n);
  const std::int64_t blocks = (k + kPackRowBlock - 1) / kPackRowBlock;
  const std::int64_t panels = (n + kernels::kGemmNR - 1) / kernels::kGemmNR;
  ThreadPool::Global().ParallelFor(
      0, blocks * panels, 1,
      LoopHint{8.0 * static_cast<double>(kPackRowBlock * kernels::kGemmNR)},
      [&](std::int64_t w0, std::int64_t w1) {
        for (std::int64_t wi = w0; wi < w1; ++wi) {
          const std::int64_t j0 = (wi / blocks) * kernels::kGemmNR;
          const std::int64_t nr = std::min(kernels::kGemmNR, n - j0);
          const std::int64_t k0 = (wi % blocks) * kPackRowBlock;
          const std::int64_t kc = std::min(kPackRowBlock, k - k0);
          float* bp = pack.data() + k * j0 + k0 * nr;
          if (transposed) {
            PackPanelFromCols(src + k0, ld, kc, j0, nr, bp);
          } else {
            PackPanelFromRows(src + k0 * ld, ld, kc, j0, nr, bp);
          }
        }
      });
  return pack;
}

/// Row-range GEMM over pre-packed panels: C rows [r0, r1) from the strided
/// A view (row r at a_base + r*a_ld, contiguous k) and the packed B.
/// When gelu_base is non-null the fused GELU epilogue fills it tile-wise.
void GemmRowsPacked(const kernels::KernelTable& K, const float* a_base,
                    std::int64_t a_ld, const float* bpack, std::int64_t k,
                    std::int64_t out, std::int64_t r0, std::int64_t r1,
                    const float* bias, float* c_base, float* gelu_base) {
  for (std::int64_t j0 = 0; j0 < out; j0 += kernels::kGemmNR) {
    const std::int64_t nr = std::min(kernels::kGemmNR, out - j0);
    const float* bp = bpack + k * j0;
    for (std::int64_t r = r0; r < r1; r += kernels::kGemmMR) {
      const std::int64_t mr = std::min(kernels::kGemmMR, r1 - r);
      K.gemm_tile(a_base + r * a_ld, a_ld, 1, bp, k, mr, nr,
                  c_base + r * out + j0, out,
                  bias != nullptr ? bias + j0 : nullptr,
                  /*accumulate=*/false,
                  gelu_base != nullptr ? gelu_base + r * out + j0 : nullptr);
    }
  }
}

/// Keys rounded up to whole attention key blocks: the panel width.
std::int64_t PaddedKeys(std::int64_t s) {
  return (s + kernels::kAttnKeyBlock - 1) / kernels::kAttnKeyBlock *
         kernels::kAttnKeyBlock;
}

/// Packs the head-column slice [offset, offset + d) of `src` transposed
/// into a d x ldk panel (row c of src becomes column c): the panel's
/// columns [c_begin, c_end), c_begin on a key block, with the padding
/// columns past src.rows() zero-filled. One 64-key column block at a time
/// with the head dim outer, so each panel row segment is written
/// contiguously while the block's source rows stay cached.
void PackHeadTransposed(const Tensor& src, std::int64_t offset,
                        std::int64_t d, std::int64_t c_begin,
                        std::int64_t c_end, std::int64_t ldk, float* panel) {
  const std::int64_t s = src.rows();
  const std::int64_t ld = src.cols();
  const float* base = src.data() + offset;
  for (std::int64_t c0 = c_begin; c0 < c_end; c0 += kernels::kAttnKeyBlock) {
    const std::int64_t width = std::min(kernels::kAttnKeyBlock, ldk - c0);
    const std::int64_t cn = std::clamp<std::int64_t>(s - c0, 0, width);
    const float* block = base + c0 * ld;
    for (std::int64_t i = 0; i < d; ++i) {
      float* __restrict dst = panel + i * ldk + c0;
      for (std::int64_t c = 0; c < cn; ++c) dst[c] = block[c * ld + i];
      std::fill(dst + cn, dst + width, 0.0f);
    }
  }
}

/// Key parts of one head's attention backward at the SIMD tiers: each part
/// is a work item, so the heads x parts items spread over the pool in
/// rounds of even size (8 heads x 3 parts fill 2, 3 or 4 lanes evenly).
constexpr int kAttnBwdParts = 3;

/// Part boundaries for s keys, on key blocks: block b is seen by the
/// s - 64 b query rows from its first key on, and a part ends at the block
/// boundary nearest to its share of the total work, so the parts are of
/// near-equal work. A function of s alone; a short sequence gets fewer
/// parts.
std::vector<std::int64_t> AttnKeyParts(std::int64_t s, int parts) {
  const std::int64_t blocks =
      (s + kernels::kAttnKeyBlock - 1) / kernels::kAttnKeyBlock;
  const auto work = [&](std::int64_t b) {
    return b < blocks ? s - b * kernels::kAttnKeyBlock : 0;
  };
  std::int64_t total = 0;
  for (std::int64_t b = 0; b < blocks; ++b) total += work(b);
  std::vector<std::int64_t> cuts = {0};
  std::int64_t done = 0;
  for (std::int64_t b = 0; b < blocks; ++b) {
    done += work(b);
    // Cut after block b once the next block's midpoint would pass the
    // part's target: the nearer boundary.
    const std::int64_t part = static_cast<std::int64_t>(cuts.size());
    if (part < parts && (2 * done + work(b + 1)) * parts >= 2 * part * total) {
      cuts.push_back(std::min(s, (b + 1) * kernels::kAttnKeyBlock));
    }
  }
  if (cuts.back() != s) cuts.push_back(s);
  return cuts;
}

}  // namespace

void SetKernelMode(KernelMode mode) {
  g_kernel_mode.store(mode, std::memory_order_relaxed);
}

void LinearForwardRows(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::int64_t row_begin, std::int64_t row_end,
                       Tensor* y) {
  if (UseReference()) {
    reference::LinearForwardRows(x, w, b, row_begin, row_end, y);
    return;
  }
  MEMO_CHECK_EQ(x.cols(), w.rows());
  MEMO_CHECK_EQ(y->rows(), x.rows());
  MEMO_CHECK_EQ(y->cols(), w.cols());
  if (row_end <= row_begin) return;
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t in = x.cols();
  const std::int64_t out = w.cols();
  // Packed GEMM: W is packed once into k-major column panels (arena-backed
  // scratch), then the register-blocked gemm_tile microkernel computes
  // kGemmMR x kGemmNR output tiles with every C element held in registers
  // across the whole k loop. Each y(r, c) accumulates in the same
  // i-ascending sequence as the reference, so the scalar table stays
  // bit-identical; SIMD tables fuse the multiply-adds within that order.
  const Tensor bpack =
      PackAllPanels(w.data(), out, in, out, /*transposed=*/false);
  ThreadPool::Global().ParallelFor(
      row_begin, row_end, kGemmRowBlock,
      LoopHint{2.0 * static_cast<double>(in) * static_cast<double>(out)},
      [&](std::int64_t r0, std::int64_t r1) {
        GemmRowsPacked(K, x.data(), in, bpack.data(), in, out, r0, r1,
                       b.empty() ? nullptr : b.data(), y->data(), nullptr);
      });
}

void LinearForward(const Tensor& x, const Tensor& w, const Tensor& b,
                   Tensor* y) {
  LinearForwardRows(x, w, b, 0, x.rows(), y);
}

void LinearBackward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* db) {
  if (UseReference()) {
    reference::LinearBackward(x, w, dy, dx, dw, db);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t rows = x.rows();
  const std::int64_t in = x.cols();
  const std::int64_t out = w.cols();
  MEMO_CHECK_EQ(dy.rows(), rows);
  MEMO_CHECK_EQ(dy.cols(), out);
  ThreadPool& pool = ThreadPool::Global();
  if (dx != nullptr) {
    MEMO_CHECK_EQ(dx->rows(), rows);
    // dx = dy . W^T: W is transpose-packed once, then the same row-blocked
    // gemm_tile path as the forward runs with `out` as the contraction dim.
    // Each dx element accumulates c-ascending (the reference dot order).
    const Tensor wt_pack =
        PackAllPanels(w.data(), out, out, in, /*transposed=*/true);
    pool.ParallelFor(
        0, rows, kGemmRowBlock,
        LoopHint{2.0 * static_cast<double>(in) * static_cast<double>(out)},
        [&](std::int64_t r0, std::int64_t r1) {
          GemmRowsPacked(K, dy.data(), out, wt_pack.data(), out, in, r0, r1,
                         nullptr, dx->data(), nullptr);
        });
  }
  if (dw == nullptr && db == nullptr) return;
  // dw and db contract over the sample rows, so dy is the packed B, and
  // they run as one list of work items, each owning its outputs:
  //  - dw[i] += x[:, i]^T dy, one item per (kGemmRowBlock dw rows x one
  //    kGemmNR column panel), so a narrow `in` still spreads over every
  //    lane. A is the transpose view of x — gemm_tile reads column i of x
  //    with a_col_stride = in, so per-k the four broadcast values are
  //    contiguous — and accumulate mode adds in the reference's
  //    r-ascending per-element sequence.
  //  - db[c] += dy[r][c] in ascending r, one panel per item, read from the
  //    packed panel.
  const Tensor dy_pack =
      PackAllPanels(dy.data(), out, rows, out, /*transposed=*/false);
  const std::int64_t panels = (out + kernels::kGemmNR - 1) / kernels::kGemmNR;
  const std::int64_t dw_items =
      dw != nullptr ? (in + kGemmRowBlock - 1) / kGemmRowBlock * panels : 0;
  const std::int64_t db_items = db != nullptr ? panels : 0;
  pool.ParallelFor(
      0, dw_items + db_items, 1,
      LoopHint{2.0 * static_cast<double>(rows) *
               static_cast<double>(kGemmRowBlock * kernels::kGemmNR)},
      [&](std::int64_t w0, std::int64_t w1) {
        for (std::int64_t wi = w0; wi < w1; ++wi) {
          const bool db_item = wi >= dw_items;
          const std::int64_t j0 =
              (db_item ? wi - dw_items : wi % panels) * kernels::kGemmNR;
          const std::int64_t nr = std::min(kernels::kGemmNR, out - j0);
          const float* bp = dy_pack.data() + rows * j0;
          if (db_item) {
            for (std::int64_t r = 0; r < rows; ++r) {
              K.acc(db->data() + j0, bp + r * nr, nr);
            }
            continue;
          }
          const std::int64_t i0 = (wi / panels) * kGemmRowBlock;
          const std::int64_t i1 = std::min(in, i0 + kGemmRowBlock);
          for (std::int64_t k0 = 0; k0 < rows; k0 += kDwRowBlock) {
            const std::int64_t kc = std::min(kDwRowBlock, rows - k0);
            for (std::int64_t i = i0; i < i1; i += kernels::kGemmMR) {
              const std::int64_t mr = std::min(kernels::kGemmMR, i1 - i);
              K.gemm_tile(x.data() + k0 * in + i, 1, in, bp + k0 * nr, kc, mr,
                          nr, dw->row(i) + j0, out, nullptr,
                          /*accumulate=*/true, nullptr);
            }
          }
        }
      });
}

void LayerNormForwardRows(const Tensor& x, const Tensor& g, const Tensor& b,
                          std::int64_t row_begin, std::int64_t row_end,
                          Tensor* y, Tensor* rstd) {
  if (UseReference()) {
    reference::LayerNormForwardRows(x, g, b, row_begin, row_end, y, rstd);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t n = x.cols();
  ThreadPool::Global().ParallelFor(
      row_begin, row_end, kRowGrain, LoopHint{8.0 * static_cast<double>(n)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* xr = x.row(r);
          const float mean = K.sum(xr, n) / static_cast<float>(n);
          const float var =
              K.sumsq_centered(xr, mean, n) / static_cast<float>(n);
          const float inv = 1.0f / std::sqrt(var + kLnEps);
          rstd->at(r, 0) = inv;
          K.ln_apply(xr, g.data(), b.data(), mean, inv, y->row(r), n);
        }
      });
}

void LayerNormForward(const Tensor& x, const Tensor& g, const Tensor& b,
                      Tensor* y, Tensor* rstd) {
  LayerNormForwardRows(x, g, b, 0, x.rows(), y, rstd);
}

void LayerNormBackward(const Tensor& x, const Tensor& g, const Tensor& rstd,
                       const Tensor& dy, Tensor* dx, Tensor* dg, Tensor* db) {
  if (UseReference()) {
    reference::LayerNormBackward(x, g, rstd, dy, dx, dg, db);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t rows = x.rows();
  const std::int64_t n = x.cols();
  ThreadPool& pool = ThreadPool::Global();
  // Pass A (row-parallel): per-row mean (shared with pass B) and dx.
  std::vector<float> means(rows);
  pool.ParallelFor(
      0, rows, kRowGrain, LoopHint{16.0 * static_cast<double>(n)},
      [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = x.row(r);
      const float* dyr = dy.row(r);
      const float inv = rstd.at(r, 0);
      const float mean = K.sum(xr, n) / static_cast<float>(n);
      means[r] = mean;
      if (dx == nullptr) continue;
      float sum_dy_g = 0.0f;
      float sum_dy_g_xhat = 0.0f;
      K.ln_bwd_reduce(xr, dyr, g.data(), mean, inv, n, &sum_dy_g,
                      &sum_dy_g_xhat);
      K.ln_bwd_apply(xr, dyr, g.data(), mean, inv,
                     1.0f / static_cast<float>(n), sum_dy_g, sum_dy_g_xhat,
                     dx->row(r), n);
    }
  });
  // Pass B (column-parallel): dg/db accumulate over rows in ascending r
  // order per element — the same floating-point order as the reference
  // kernel, but race-free because threads own disjoint column ranges.
  if (dg != nullptr || db != nullptr) {
    pool.ParallelFor(
        0, n, kColGrain, LoopHint{3.0 * static_cast<double>(rows)},
        [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t r = 0; r < rows; ++r) {
        K.ln_bwd_dgdb(x.row(r) + i0, dy.row(r) + i0, means[r], rstd.at(r, 0),
                      dg != nullptr ? dg->data() + i0 : nullptr,
                      db != nullptr ? db->data() + i0 : nullptr, i1 - i0);
      }
    });
  }
}

void LayerNormLinearGeluForwardRows(const Tensor& x, const Tensor& g,
                                    const Tensor& bln, const Tensor& w,
                                    const Tensor& bfc, std::int64_t row_begin,
                                    std::int64_t row_end, Tensor* ln_out,
                                    Tensor* ln_rstd, Tensor* fc_out,
                                    Tensor* gelu_out) {
  if (UseReference()) {
    reference::LayerNormForwardRows(x, g, bln, row_begin, row_end, ln_out,
                                    ln_rstd);
    reference::LinearForwardRows(*ln_out, w, bfc, row_begin, row_end, fc_out);
    reference::GeluForwardRows(*fc_out, row_begin, row_end, gelu_out);
    return;
  }
  MEMO_CHECK_EQ(x.cols(), w.rows());
  MEMO_CHECK_EQ(fc_out->cols(), w.cols());
  MEMO_CHECK_EQ(gelu_out->cols(), w.cols());
  if (row_end <= row_begin) return;
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t in = x.cols();
  const std::int64_t out = w.cols();
  // One pass per row block: normalize the block's rows (their ln rows are
  // then still cache-hot as the GEMM's A operand), run the packed GEMM, and
  // let the fused epilogue write gelu(fc) tile by tile while the fc tile is
  // still resident. The LN body is the LayerNormForwardRows body verbatim
  // and the epilogue calls the same gelu_fwd kernel row-slice-wise, so the
  // fused op is bit-identical to the unfused sequence at every tier.
  const Tensor bpack =
      PackAllPanels(w.data(), out, in, out, /*transposed=*/false);
  ThreadPool::Global().ParallelFor(
      row_begin, row_end, kGemmRowBlock,
      LoopHint{2.0 * static_cast<double>(in) * static_cast<double>(out)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* xr = x.row(r);
          const float mean = K.sum(xr, in) / static_cast<float>(in);
          const float var =
              K.sumsq_centered(xr, mean, in) / static_cast<float>(in);
          const float inv = 1.0f / std::sqrt(var + kLnEps);
          ln_rstd->at(r, 0) = inv;
          K.ln_apply(xr, g.data(), bln.data(), mean, inv, ln_out->row(r), in);
        }
        GemmRowsPacked(K, ln_out->data(), in, bpack.data(), in, out, r0, r1,
                       bfc.empty() ? nullptr : bfc.data(), fc_out->data(),
                       gelu_out->data());
      });
}

void GeluForwardRows(const Tensor& x, std::int64_t row_begin,
                     std::int64_t row_end, Tensor* y) {
  if (UseReference()) {
    reference::GeluForwardRows(x, row_begin, row_end, y);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t n = x.cols();
  // Per-row kernel calls keep the vector-body/scalar-tail split a function
  // of n alone, so recomputing any row subset is bit-identical.
  ThreadPool::Global().ParallelFor(
      row_begin, row_end, kRowGrain, LoopHint{16.0 * static_cast<double>(n)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          K.gelu_fwd(x.row(r), y->row(r), n);
        }
      });
}

void GeluForward(const Tensor& x, Tensor* y) {
  GeluForwardRows(x, 0, x.rows(), y);
}

void GeluBackward(const Tensor& x, const Tensor& dy, Tensor* dx) {
  if (UseReference()) {
    reference::GeluBackward(x, dy, dx);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t n = x.cols();
  ThreadPool::Global().ParallelFor(
      0, x.rows(), kRowGrain, LoopHint{24.0 * static_cast<double>(n)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          K.gelu_bwd(x.row(r), dy.row(r), dx->row(r), n);
        }
      });
}

void AddRows(const Tensor& a, const Tensor& b, std::int64_t row_begin,
             std::int64_t row_end, Tensor* out) {
  MEMO_CHECK_EQ(a.cols(), b.cols());
  MEMO_CHECK_EQ(out->cols(), a.cols());
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t n = a.cols();
  // Hinted by bytes moved (two 4-byte reads and a write per element): an
  // add is memory-bound, so only a large one is worth a dispatch.
  ThreadPool::Global().ParallelFor(
      row_begin, row_end, kRowGrain, LoopHint{12.0 * static_cast<double>(n)},
      [&](std::int64_t r0, std::int64_t r1) {
        K.add(out->row(r0), a.row(r0), b.row(r0), (r1 - r0) * n);
      });
}

void AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      int heads, Tensor* out, Tensor* lse) {
  if (UseReference()) {
    reference::AttentionForward(q, k, v, heads, out, lse);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t s = q.rows();
  const std::int64_t h = q.cols();
  MEMO_CHECK_EQ(h % heads, 0);
  const std::int64_t head_dim = h / heads;
  const std::int64_t ldk = PaddedKeys(s);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Tensor unsaved_lse;
  if (lse == nullptr) {
    unsaved_lse = Tensor::Uninitialized(s, heads);
    lse = &unsaved_lse;
  }
  MEMO_CHECK_EQ(lse->rows(), s);
  MEMO_CHECK_EQ(lse->cols(), heads);
  // Per-head packing (arena-backed scratch): K transposed to a padded
  // d x ldk panel so the score kernel runs broadcast-FMA over 64 contiguous
  // keys at a time, V copied contiguous per head so the value accumulation
  // streams linearly instead of striding by the full hidden width.
  Tensor kt_pack = Tensor::Uninitialized(1, h * ldk);
  Tensor v_pack = Tensor::Uninitialized(1, h * s);
  ThreadPool::Global().ParallelFor(
      0, heads, 1,
      LoopHint{4.0 * static_cast<double>(head_dim) * static_cast<double>(s)},
      [&](std::int64_t h0, std::int64_t h1) {
        for (std::int64_t head = h0; head < h1; ++head) {
          const std::int64_t offset = head * head_dim;
          PackHeadTransposed(k, offset, head_dim, 0, ldk, ldk,
                             kt_pack.data() + offset * ldk);
          float* vp = v_pack.data() + offset * s;
          for (std::int64_t c = 0; c < s; ++c) {
            std::memcpy(vp + c * head_dim, v.row(c) + offset,
                        static_cast<std::size_t>(head_dim) * sizeof(float));
          }
        }
      });
  // One flat (head, tile of kAttnRowTile query rows) index space: tiles are
  // independent and different heads touch disjoint column slices, so the
  // flat space chunks freely across threads with one dispatch.
  const std::int64_t tiles =
      (s + kernels::kAttnRowTile - 1) / kernels::kAttnRowTile;
  ThreadPool::Global().ParallelFor(
      0, static_cast<std::int64_t>(heads) * tiles,
      kAttnRowGrain / kernels::kAttnRowTile,
      LoopHint{1.0 * static_cast<double>(kernels::kAttnRowTile * head_dim) *
               static_cast<double>(s)},
      [&](std::int64_t w0, std::int64_t w1) {
        // Persistent per-thread scratch for the scalar path's score row
        // (and the wide-head SIMD fallback).
        float* scratch = ThreadScratchFloats(ldk);
        for (std::int64_t wi = w0; wi < w1; ++wi) {
          const std::int64_t head = wi / tiles;
          const std::int64_t r0 = (wi - head * tiles) * kernels::kAttnRowTile;
          const std::int64_t offset = head * head_dim;
          K.attn_fwd_rows(q.data() + offset, h,
                          kt_pack.data() + offset * ldk, ldk,
                          v_pack.data() + offset * s, r0,
                          std::min(kernels::kAttnRowTile, s - r0), head_dim,
                          scale, out->data() + offset, h, lse->data() + head,
                          heads, scratch);
        }
      });
}

void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& out, const Tensor& lse,
                       const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv) {
  if (UseReference()) {
    reference::AttentionBackward(q, k, v, heads, dout, dq, dk, dv);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t s = q.rows();
  const std::int64_t h = q.cols();
  MEMO_CHECK_EQ(h % heads, 0);
  MEMO_CHECK_EQ(dout.cols(), h);
  MEMO_CHECK_EQ(out.cols(), h);
  MEMO_CHECK_EQ(lse.rows(), s);
  MEMO_CHECK_EQ(lse.cols(), heads);
  const std::int64_t head_dim = h / heads;
  const std::int64_t ldk = PaddedKeys(s);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  // One work item per (head, key part): it packs its keys' columns of the
  // head's K^T and V^T panels (arena-backed, disjoint per item) and runs the
  // backward of those keys, so the items depend only on (s, heads,
  // head_dim) and every pool size gives the same bits. Part 0 writes dq;
  // every later part writes its share of dq into a partial of its own,
  // added to dq in part order. The scalar table's dq is one chain over all
  // keys, so there a head is one part.
  const std::vector<std::int64_t> cuts = AttnKeyParts(
      s, K.level == SimdLevel::kScalar ? 1 : kAttnBwdParts);
  const std::int64_t parts = static_cast<std::int64_t>(cuts.size()) - 1;
  std::vector<Tensor> dq_partials;
  for (std::int64_t p = 1; p < parts; ++p) {
    dq_partials.push_back(Tensor::Uninitialized(s, h));
  }
  Tensor kt_pack = Tensor::Uninitialized(1, h * ldk);
  Tensor vt_pack = Tensor::Uninitialized(1, h * ldk);
  ThreadPool::Global().ParallelFor(
      0, heads * parts, 1,
      LoopHint{5.0 * static_cast<double>(head_dim) * static_cast<double>(s) *
               static_cast<double>(s) / static_cast<double>(parts)},
      [&](std::int64_t w0, std::int64_t w1) {
        float* scratch =
            ThreadScratchFloats(kernels::AttnBwdScratchFloats(s, head_dim));
        for (std::int64_t wi = w0; wi < w1; ++wi) {
          const std::int64_t head = wi / parts;
          const std::int64_t part = wi - head * parts;
          const std::int64_t offset = head * head_dim;
          const std::int64_t c_begin = cuts[part];
          const std::int64_t c_end = cuts[part + 1];
          float* kt = kt_pack.data() + offset * ldk;
          float* vt = vt_pack.data() + offset * ldk;
          PackHeadTransposed(k, offset, head_dim, c_begin, c_end, ldk, kt);
          PackHeadTransposed(v, offset, head_dim, c_begin, c_end, ldk, vt);
          float* dq_part =
              part == 0 ? dq->data() : dq_partials[part - 1].data();
          K.attn_bwd(q.data() + offset, k.data() + offset,
                     dout.data() + offset, out.data() + offset, h, kt, vt,
                     ldk, lse.data() + head, heads, s, c_begin, c_end,
                     head_dim, scale, dq_part + offset, dk->data() + offset,
                     dv->data() + offset, h, scratch);
        }
      });
  for (std::int64_t p = 1; p < parts; ++p) {
    AddRows(*dq, dq_partials[p - 1], cuts[p], s, dq);
  }
}

void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv) {
  Tensor out = Tensor::Uninitialized(q.rows(), q.cols());
  Tensor lse = Tensor::Uninitialized(q.rows(), heads);
  AttentionForward(q, k, v, heads, &out, &lse);
  AttentionBackward(q, k, v, heads, out, lse, dout, dq, dk, dv);
}

double CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor* d_logits) {
  if (UseReference()) {
    return reference::CrossEntropy(logits, targets, d_logits);
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t rows = logits.rows();
  const std::int64_t v = logits.cols();
  MEMO_CHECK_EQ(static_cast<std::int64_t>(targets.size()), rows);
  const float inv_rows = 1.0f / static_cast<float>(rows);
  // Per-row losses land in a scratch vector and are summed sequentially in
  // row order afterwards, so the total matches the reference bit for bit
  // regardless of how rows were chunked.
  std::vector<double> row_loss(rows);
  ThreadPool::Global().ParallelFor(
      0, rows, kRowGrain, LoopHint{10.0 * static_cast<double>(v)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const int target = targets[r];
          MEMO_CHECK_GE(target, 0);
          MEMO_CHECK_LT(target, v);
          row_loss[r] =
              K.ce_row(logits.row(r), v, target, inv_rows,
                       d_logits != nullptr ? d_logits->row(r) : nullptr);
        }
      });
  double loss = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) loss += row_loss[r];
  return loss / static_cast<double>(rows);
}

void EmbeddingForward(const Tensor& table, const std::vector<int>& tokens,
                      Tensor* out) {
  if (UseReference()) {
    reference::EmbeddingForward(table, tokens, out);
    return;
  }
  const std::int64_t h = table.cols();
  ThreadPool::Global().ParallelFor(
      0, static_cast<std::int64_t>(tokens.size()), kRowGrain,
      LoopHint{1.0 * static_cast<double>(h)},
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          MEMO_CHECK_GE(tokens[r], 0);
          MEMO_CHECK_LT(tokens[r], table.rows());
          const float* src = table.row(tokens[r]);
          float* dst = out->row(r);
          std::copy(src, src + h, dst);
        }
      });
}

void EmbeddingBackward(const std::vector<int>& tokens, const Tensor& dy,
                       Tensor* dtable) {
  if (UseReference()) {
    reference::EmbeddingBackward(tokens, dy, dtable);
    return;
  }
  const kernels::KernelTable& K = kernels::Active();
  const std::int64_t rows = static_cast<std::int64_t>(tokens.size());
  // Tokens repeat, so the scatter-add races if chunked over rows; chunking
  // over embedding columns keeps every destination element on one thread
  // with rows applied in ascending order, exactly like the reference.
  ThreadPool::Global().ParallelFor(
      0, dy.cols(), kColGrain, LoopHint{2.0 * static_cast<double>(rows)},
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t r = 0; r < rows; ++r) {
          K.acc(dtable->row(tokens[r]) + i0, dy.row(r) + i0, i1 - i0);
        }
      });
}

}  // namespace memo::train
