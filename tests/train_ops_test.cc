#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "train/kernels/kernels.h"
#include "train/ops.h"

namespace memo::train {
namespace {

constexpr double kGradTol = 2e-2;  // finite differences in float32

Tensor RandomTensor(std::int64_t rows, std::int64_t cols, Rng& rng) {
  return Tensor::Randn(rows, cols, 0.5, rng);
}

/// Central-difference check of dL/dx where L = sum(weights * f(x)).
template <typename Forward>
void CheckInputGradient(Forward forward, Tensor& x, const Tensor& dy,
                        const Tensor& dx, double eps = 1e-3) {
  for (std::int64_t i = 0; i < x.size(); i += std::max<std::int64_t>(1, x.size() / 23)) {
    const float original = x.data()[i];
    x.data()[i] = original + static_cast<float>(eps);
    const Tensor y_plus = forward(x);
    x.data()[i] = original - static_cast<float>(eps);
    const Tensor y_minus = forward(x);
    x.data()[i] = original;
    double numeric = 0.0;
    for (std::int64_t j = 0; j < dy.size(); ++j) {
      numeric += dy.data()[j] * (y_plus.data()[j] - y_minus.data()[j]);
    }
    numeric /= 2.0 * eps;
    EXPECT_NEAR(numeric, dx.data()[i], kGradTol)
        << "at flat index " << i;
  }
}

TEST(OpsTest, LinearForwardMatchesManual) {
  Tensor x(2, 3);
  Tensor w(3, 2);
  Tensor b(1, 2);
  for (std::int64_t i = 0; i < x.size(); ++i) x.data()[i] = i + 1;
  for (std::int64_t i = 0; i < w.size(); ++i) w.data()[i] = 0.5f * (i + 1);
  b.data()[0] = 1.0f;
  b.data()[1] = -1.0f;
  Tensor y(2, 2);
  LinearForward(x, w, b, &y);
  // row0 = [1,2,3]: y00 = 1*0.5+2*1.5+3*2.5 + 1 = 12; y01 = 1*1+2*2+3*3 -1 = 13.
  EXPECT_FLOAT_EQ(y.at(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 13.0f);
}

TEST(OpsTest, LinearBackwardGradients) {
  Rng rng(5);
  Tensor x = RandomTensor(4, 5, rng);
  Tensor w = RandomTensor(5, 3, rng);
  Tensor b = RandomTensor(1, 3, rng);
  Tensor dy = RandomTensor(4, 3, rng);
  Tensor dx(4, 5);
  Tensor dw(5, 3);
  Tensor db(1, 3);
  LinearBackward(x, w, dy, &dx, &dw, &db);
  CheckInputGradient(
      [&](const Tensor& xx) {
        Tensor y(4, 3);
        LinearForward(xx, w, b, &y);
        return y;
      },
      x, dy, dx);
}

TEST(OpsTest, LayerNormBackwardGradients) {
  Rng rng(6);
  Tensor x = RandomTensor(3, 8, rng);
  Tensor g = RandomTensor(1, 8, rng);
  Tensor b = RandomTensor(1, 8, rng);
  Tensor y(3, 8);
  Tensor rstd(3, 1);
  LayerNormForward(x, g, b, &y, &rstd);
  Tensor dy = RandomTensor(3, 8, rng);
  Tensor dx(3, 8);
  Tensor dg(1, 8);
  Tensor db(1, 8);
  LayerNormBackward(x, g, rstd, dy, &dx, &dg, &db);
  CheckInputGradient(
      [&](const Tensor& xx) {
        Tensor yy(3, 8);
        Tensor rr(3, 1);
        LayerNormForward(xx, g, b, &yy, &rr);
        return yy;
      },
      x, dy, dx);
}

TEST(OpsTest, GeluBackwardGradients) {
  Rng rng(7);
  Tensor x = RandomTensor(3, 7, rng);
  Tensor dy = RandomTensor(3, 7, rng);
  Tensor dx(3, 7);
  GeluBackward(x, dy, &dx);
  CheckInputGradient(
      [&](const Tensor& xx) {
        Tensor y(3, 7);
        GeluForward(xx, &y);
        return y;
      },
      x, dy, dx);
}

TEST(OpsTest, AttentionIsCausal) {
  Rng rng(8);
  Tensor q = RandomTensor(6, 8, rng);
  Tensor k = RandomTensor(6, 8, rng);
  Tensor v = RandomTensor(6, 8, rng);
  Tensor out1(6, 8);
  AttentionForward(q, k, v, 2, &out1);
  // Changing a FUTURE key/value must not affect earlier outputs.
  k.at(5, 0) += 10.0f;
  v.at(5, 3) -= 7.0f;
  Tensor out2(6, 8);
  AttentionForward(q, k, v, 2, &out2);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_FLOAT_EQ(out1.at(r, c), out2.at(r, c)) << r << "," << c;
    }
  }
  // Row 5 must change.
  bool changed = false;
  for (std::int64_t c = 0; c < 8; ++c) {
    changed |= out1.at(5, c) != out2.at(5, c);
  }
  EXPECT_TRUE(changed);
}

TEST(OpsTest, AttentionRowsAreConvexCombinations) {
  // With a single head and all-equal values, output equals that value.
  Tensor q(4, 4);
  Tensor k(4, 4);
  Tensor v(4, 4);
  v.Fill(3.5f);
  Rng rng(9);
  q = RandomTensor(4, 4, rng);
  k = RandomTensor(4, 4, rng);
  Tensor out(4, 4);
  AttentionForward(q, k, v, 1, &out);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], 3.5f, 1e-5);
  }
}

TEST(OpsTest, AttentionBackwardGradients) {
  Rng rng(10);
  Tensor q = RandomTensor(5, 4, rng);
  Tensor k = RandomTensor(5, 4, rng);
  Tensor v = RandomTensor(5, 4, rng);
  Tensor dout = RandomTensor(5, 4, rng);
  Tensor dq(5, 4);
  Tensor dk(5, 4);
  Tensor dv(5, 4);
  AttentionBackward(q, k, v, 2, dout, &dq, &dk, &dv);
  CheckInputGradient(
      [&](const Tensor& qq) {
        Tensor out(5, 4);
        AttentionForward(qq, k, v, 2, &out);
        return out;
      },
      q, dout, dq);
  CheckInputGradient(
      [&](const Tensor& kk) {
        Tensor out(5, 4);
        AttentionForward(q, kk, v, 2, &out);
        return out;
      },
      k, dout, dk);
  CheckInputGradient(
      [&](const Tensor& vv) {
        Tensor out(5, 4);
        AttentionForward(q, k, vv, 2, &out);
        return out;
      },
      v, dout, dv);
}

TEST(OpsTest, CrossEntropyMatchesUniformBaseline) {
  // Zero logits => loss = ln(V).
  Tensor logits(3, 16);
  Tensor d(3, 16);
  const double loss = CrossEntropy(logits, {1, 5, 9}, &d);
  EXPECT_NEAR(loss, std::log(16.0), 1e-6);
  // Gradient rows sum to zero (softmax minus one-hot, scaled).
  for (std::int64_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 16; ++c) sum += d.at(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(OpsTest, CrossEntropyGradientNumeric) {
  Rng rng(11);
  Tensor logits = RandomTensor(4, 8, rng);
  const std::vector<int> targets = {0, 3, 7, 2};
  Tensor d(4, 8);
  CrossEntropy(logits, targets, &d);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.size(); i += 5) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + static_cast<float>(eps);
    const double lp = CrossEntropy(logits, targets, nullptr);
    logits.data()[i] = orig - static_cast<float>(eps);
    const double lm = CrossEntropy(logits, targets, nullptr);
    logits.data()[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), d.data()[i], 1e-3);
  }
}

TEST(OpsTest, EmbeddingRoundTrip) {
  Rng rng(12);
  Tensor table = RandomTensor(10, 4, rng);
  Tensor out(3, 4);
  EmbeddingForward(table, {2, 7, 2}, &out);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.at(0, c), table.at(2, c));
    EXPECT_FLOAT_EQ(out.at(1, c), table.at(7, c));
  }
  Tensor dtable(10, 4);
  Tensor dy(3, 4);
  dy.Fill(1.0f);
  EmbeddingBackward({2, 7, 2}, dy, &dtable);
  EXPECT_FLOAT_EQ(dtable.at(2, 0), 2.0f);  // token 2 used twice
  EXPECT_FLOAT_EQ(dtable.at(7, 0), 1.0f);
  EXPECT_FLOAT_EQ(dtable.at(3, 0), 0.0f);
}

TEST(OpsTest, RowSlicedLinearIsBitIdentical) {
  // The property token-wise recomputation rests on: computing a row subset
  // reproduces exactly the same floats as the full-matrix pass.
  Rng rng(13);
  Tensor x = RandomTensor(8, 6, rng);
  Tensor w = RandomTensor(6, 5, rng);
  Tensor b = RandomTensor(1, 5, rng);
  Tensor full(8, 5);
  LinearForward(x, w, b, &full);
  Tensor partial(8, 5);
  LinearForwardRows(x, w, b, 3, 8, &partial);
  for (std::int64_t r = 3; r < 8; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_EQ(full.at(r, c), partial.at(r, c));  // exact
    }
  }
}

// ---- The output contract of train/ops.h: an op writes every output in
// full (on its rows, for a *Rows variant) and never reads it first, which
// is what lets the model allocate them uninitialized.

/// One output of an op: its shape and the rows the op writes.
struct OutputSpec {
  const char* name;
  std::int64_t rows, cols;
  std::int64_t begin, end;
};

/// Runs `op` once on outputs prefilled with NaN and once on outputs
/// prefilled with zeros. The written rows must hold the same bits in both
/// runs (a read of the prefill would carry the NaN through), and every
/// other row must still hold its prefill.
void ExpectWrittenInFull(const char* op_name,
                         const std::vector<OutputSpec>& specs,
                         const std::function<void(std::vector<Tensor>&)>& op) {
  SCOPED_TRACE(op_name);
  const auto run = [&](float fill) {
    std::vector<Tensor> outs;
    for (const OutputSpec& spec : specs) {
      outs.push_back(Tensor::Uninitialized(spec.rows, spec.cols));
      outs.back().Fill(fill);
    }
    op(outs);
    return outs;
  };
  const std::vector<Tensor> nan_prefilled =
      run(std::numeric_limits<float>::quiet_NaN());
  const std::vector<Tensor> zero_prefilled = run(0.0f);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const OutputSpec& spec = specs[i];
    std::int64_t differing = 0;
    std::int64_t overwritten = 0;
    for (std::int64_t r = 0; r < spec.rows; ++r) {
      const float* a = nan_prefilled[i].row(r);
      const float* b = zero_prefilled[i].row(r);
      if (r >= spec.begin && r < spec.end) {
        differing += std::memcmp(a, b, spec.cols * sizeof(float)) != 0;
        continue;
      }
      for (std::int64_t c = 0; c < spec.cols; ++c) {
        overwritten += !std::isnan(a[c]) || b[c] != 0.0f;
      }
    }
    EXPECT_EQ(differing, 0) << spec.name << ": written rows depend on the "
                            << "prefill";
    EXPECT_EQ(overwritten, 0) << spec.name << ": rows outside ["
                              << spec.begin << ", " << spec.end
                              << ") were written";
  }
}

/// Every op with an output, at shapes whose rows, k and n are not multiples
/// of the row grain, the pack block or the panel width.
void ExpectEveryOpWritesItsOutputsInFull() {
  constexpr std::int64_t s = 150, in = 200, out = 70, h = 48, ffn = 100,
                         vocab = 37;
  constexpr int heads = 3;
  constexpr std::int64_t b = 13, e = 141;  // the *Rows variants' rows
  Rng rng(21);
  const Tensor x = RandomTensor(s, in, rng);
  const Tensor x_grad = RandomTensor(s, in, rng);
  const Tensor w = RandomTensor(in, out, rng);
  const Tensor bias = RandomTensor(1, out, rng);
  const Tensor dy = RandomTensor(s, out, rng);
  const Tensor xh = RandomTensor(s, h, rng);
  const Tensor dyh = RandomTensor(s, h, rng);
  const Tensor g = RandomTensor(1, h, rng);
  const Tensor bh = RandomTensor(1, h, rng);
  const Tensor w1 = RandomTensor(h, ffn, rng);
  const Tensor b1 = RandomTensor(1, ffn, rng);
  const Tensor q = RandomTensor(s, h, rng);
  const Tensor k = RandomTensor(s, h, rng);
  const Tensor v = RandomTensor(s, h, rng);
  const Tensor logits = RandomTensor(s, vocab, rng);
  const Tensor table = RandomTensor(vocab, h, rng);
  std::vector<int> tokens(s);
  for (int& t : tokens) t = static_cast<int>(rng.NextBounded(vocab));
  Tensor ln_y(s, h), rstd(s, 1);
  LayerNormForward(xh, g, bh, &ln_y, &rstd);
  Tensor attn(s, h), lse(s, heads);
  AttentionForward(q, k, v, heads, &attn, &lse);

  ExpectWrittenInFull("LinearForwardRows", {{"y", s, out, b, e}},
                      [&](std::vector<Tensor>& o) {
                        LinearForwardRows(x, w, bias, b, e, &o[0]);
                      });
  ExpectWrittenInFull(
      "LinearForward", {{"y", s, out, 0, s}},
      [&](std::vector<Tensor>& o) { LinearForward(x, w, bias, &o[0]); });
  ExpectWrittenInFull("LinearBackward", {{"dx", s, in, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        Tensor dw(in, out), db(1, out);
                        LinearBackward(x, w, dy, &o[0], &dw, &db);
                      });
  ExpectWrittenInFull("LayerNormForwardRows",
                      {{"y", s, h, b, e}, {"rstd", s, 1, b, e}},
                      [&](std::vector<Tensor>& o) {
                        LayerNormForwardRows(xh, g, bh, b, e, &o[0], &o[1]);
                      });
  ExpectWrittenInFull("LayerNormForward",
                      {{"y", s, h, 0, s}, {"rstd", s, 1, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        LayerNormForward(xh, g, bh, &o[0], &o[1]);
                      });
  ExpectWrittenInFull("LayerNormBackward", {{"dx", s, h, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        Tensor dg(1, h), db(1, h);
                        LayerNormBackward(xh, g, rstd, dyh, &o[0], &dg, &db);
                      });
  ExpectWrittenInFull("LayerNormLinearGeluForwardRows",
                      {{"ln_out", s, h, b, e},
                       {"ln_rstd", s, 1, b, e},
                       {"fc_out", s, ffn, b, e},
                       {"gelu_out", s, ffn, b, e}},
                      [&](std::vector<Tensor>& o) {
                        LayerNormLinearGeluForwardRows(xh, g, bh, w1, b1, b, e,
                                                       &o[0], &o[1], &o[2],
                                                       &o[3]);
                      });
  ExpectWrittenInFull(
      "GeluForwardRows", {{"y", s, in, b, e}},
      [&](std::vector<Tensor>& o) { GeluForwardRows(x, b, e, &o[0]); });
  ExpectWrittenInFull("GeluForward", {{"y", s, in, 0, s}},
                      [&](std::vector<Tensor>& o) { GeluForward(x, &o[0]); });
  ExpectWrittenInFull(
      "GeluBackward", {{"dx", s, in, 0, s}},
      [&](std::vector<Tensor>& o) { GeluBackward(x, x_grad, &o[0]); });
  ExpectWrittenInFull("AttentionForward",
                      {{"out", s, h, 0, s}, {"lse", s, heads, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        AttentionForward(q, k, v, heads, &o[0], &o[1]);
                      });
  ExpectWrittenInFull(
      "AttentionBackward",
      {{"dq", s, h, 0, s}, {"dk", s, h, 0, s}, {"dv", s, h, 0, s}},
      [&](std::vector<Tensor>& o) {
        AttentionBackward(q, k, v, heads, dyh, &o[0], &o[1], &o[2]);
      });
  ExpectWrittenInFull(
      "AttentionBackward from saved out and lse",
      {{"dq", s, h, 0, s}, {"dk", s, h, 0, s}, {"dv", s, h, 0, s}},
      [&](std::vector<Tensor>& o) {
        AttentionBackward(q, k, v, heads, attn, lse, dyh, &o[0], &o[1],
                          &o[2]);
      });
  ExpectWrittenInFull("CrossEntropy", {{"d_logits", s, vocab, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        CrossEntropy(logits, tokens, &o[0]);
                      });
  ExpectWrittenInFull("EmbeddingForward", {{"out", s, h, 0, s}},
                      [&](std::vector<Tensor>& o) {
                        EmbeddingForward(table, tokens, &o[0]);
                      });
  ExpectWrittenInFull(
      "AddRows", {{"out", s, h, b, e}},
      [&](std::vector<Tensor>& o) { AddRows(xh, dyh, b, e, &o[0]); });
}

TEST(OpsTest, OutputsAreWrittenInFull) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const ScopedSimdLevel pin(level);
    if (kernels::Active().level != level) continue;  // not on this CPU
    SCOPED_TRACE(SimdLevelName(level));
    ExpectEveryOpWritesItsOutputsInFull();
  }
  SCOPED_TRACE("KernelMode::kReference");
  SetKernelMode(KernelMode::kReference);
  ExpectEveryOpWritesItsOutputsInFull();
  SetKernelMode(KernelMode::kOptimized);
}

}  // namespace
}  // namespace memo::train
