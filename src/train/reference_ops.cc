#include "train/reference_ops.h"

#include <cmath>

namespace memo::train::reference {

void LinearForwardRows(const Tensor& x, const Tensor& w, const Tensor& b,
                       std::int64_t row_begin, std::int64_t row_end,
                       Tensor* y) {
  MEMO_CHECK_EQ(x.cols(), w.rows());
  MEMO_CHECK_EQ(y->rows(), x.rows());
  MEMO_CHECK_EQ(y->cols(), w.cols());
  const std::int64_t in = x.cols();
  const std::int64_t out = w.cols();
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const float* xr = x.row(r);
    float* yr = y->row(r);
    for (std::int64_t c = 0; c < out; ++c) {
      float acc = b.empty() ? 0.0f : b.data()[c];
      for (std::int64_t i = 0; i < in; ++i) {
        acc += xr[i] * w.at(i, c);
      }
      yr[c] = acc;
    }
  }
}

void LinearForward(const Tensor& x, const Tensor& w, const Tensor& b,
                   Tensor* y) {
  LinearForwardRows(x, w, b, 0, x.rows(), y);
}

void LinearBackward(const Tensor& x, const Tensor& w, const Tensor& dy,
                    Tensor* dx, Tensor* dw, Tensor* db) {
  const std::int64_t rows = x.rows();
  const std::int64_t in = x.cols();
  const std::int64_t out = w.cols();
  MEMO_CHECK_EQ(dy.rows(), rows);
  MEMO_CHECK_EQ(dy.cols(), out);
  if (dx != nullptr) {
    MEMO_CHECK_EQ(dx->rows(), rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* dyr = dy.row(r);
      float* dxr = dx->row(r);
      for (std::int64_t i = 0; i < in; ++i) {
        float acc = 0.0f;
        for (std::int64_t c = 0; c < out; ++c) {
          acc += dyr[c] * w.at(i, c);
        }
        dxr[i] = acc;
      }
    }
  }
  if (dw != nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* xr = x.row(r);
      const float* dyr = dy.row(r);
      for (std::int64_t i = 0; i < in; ++i) {
        float* dwr = dw->row(i);
        const float xv = xr[i];
        for (std::int64_t c = 0; c < out; ++c) {
          dwr[c] += xv * dyr[c];
        }
      }
    }
  }
  if (db != nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* dyr = dy.row(r);
      for (std::int64_t c = 0; c < out; ++c) {
        db->data()[c] += dyr[c];
      }
    }
  }
}

void LayerNormForwardRows(const Tensor& x, const Tensor& g, const Tensor& b,
                          std::int64_t row_begin, std::int64_t row_end,
                          Tensor* y, Tensor* rstd) {
  const std::int64_t n = x.cols();
  constexpr float kEps = 1e-5f;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const float* xr = x.row(r);
    float mean = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) mean += xr[i];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float d = xr[i] - mean;
      var += d * d;
    }
    var /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + kEps);
    rstd->at(r, 0) = inv;
    float* yr = y->row(r);
    for (std::int64_t i = 0; i < n; ++i) {
      yr[i] = (xr[i] - mean) * inv * g.data()[i] + b.data()[i];
    }
  }
}

void LayerNormForward(const Tensor& x, const Tensor& g, const Tensor& b,
                      Tensor* y, Tensor* rstd) {
  LayerNormForwardRows(x, g, b, 0, x.rows(), y, rstd);
}

void LayerNormBackward(const Tensor& x, const Tensor& g, const Tensor& rstd,
                       const Tensor& dy, Tensor* dx, Tensor* dg, Tensor* db) {
  const std::int64_t n = x.cols();
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    const float* dyr = dy.row(r);
    const float inv = rstd.at(r, 0);
    // Recompute the mean (cheap) to form x_hat.
    float mean = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) mean += xr[i];
    mean /= static_cast<float>(n);

    float sum_dy_g = 0.0f;
    float sum_dy_g_xhat = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      const float xhat = (xr[i] - mean) * inv;
      const float dyg = dyr[i] * g.data()[i];
      sum_dy_g += dyg;
      sum_dy_g_xhat += dyg * xhat;
      if (dg != nullptr) dg->data()[i] += dyr[i] * xhat;
      if (db != nullptr) db->data()[i] += dyr[i];
    }
    if (dx != nullptr) {
      float* dxr = dx->row(r);
      const float inv_n = 1.0f / static_cast<float>(n);
      for (std::int64_t i = 0; i < n; ++i) {
        const float xhat = (xr[i] - mean) * inv;
        const float dyg = dyr[i] * g.data()[i];
        dxr[i] = inv * (dyg - inv_n * sum_dy_g - xhat * inv_n * sum_dy_g_xhat);
      }
    }
  }
}

void GeluForwardRows(const Tensor& x, std::int64_t row_begin,
                     std::int64_t row_end, Tensor* y) {
  const std::int64_t n = x.cols();
  constexpr float kInvSqrt2 = 0.70710678118654752f;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const float* xr = x.row(r);
    float* yr = y->row(r);
    for (std::int64_t i = 0; i < n; ++i) {
      yr[i] = xr[i] * 0.5f * (1.0f + std::erf(xr[i] * kInvSqrt2));
    }
  }
}

void GeluForward(const Tensor& x, Tensor* y) {
  GeluForwardRows(x, 0, x.rows(), y);
}

void GeluBackward(const Tensor& x, const Tensor& dy, Tensor* dx) {
  const std::int64_t n = x.cols();
  constexpr float kInvSqrt2 = 0.70710678118654752f;
  constexpr float kInvSqrt2Pi = 0.39894228040143268f;
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.row(r);
    const float* dyr = dy.row(r);
    float* dxr = dx->row(r);
    for (std::int64_t i = 0; i < n; ++i) {
      const float cdf = 0.5f * (1.0f + std::erf(xr[i] * kInvSqrt2));
      const float pdf = kInvSqrt2Pi * std::exp(-0.5f * xr[i] * xr[i]);
      dxr[i] = dyr[i] * (cdf + xr[i] * pdf);
    }
  }
}

namespace {

/// Causal softmax probabilities of one head-row (scores of query row `r`
/// against keys [0, r]); returns the row's log-sum-exp.
float HeadRowProbs(const Tensor& q, const Tensor& k, int head,
                   std::int64_t head_dim, float scale, std::int64_t r,
                   std::vector<float>* probs) {
  const std::int64_t offset = head * head_dim;
  probs->assign(r + 1, 0.0f);
  float max_score = -1e30f;
  for (std::int64_t c = 0; c <= r; ++c) {
    float score = 0.0f;
    for (std::int64_t i = 0; i < head_dim; ++i) {
      score += q.at(r, offset + i) * k.at(c, offset + i);
    }
    score *= scale;
    (*probs)[c] = score;
    if (score > max_score) max_score = score;
  }
  float denom = 0.0f;
  for (std::int64_t c = 0; c <= r; ++c) {
    (*probs)[c] = std::exp((*probs)[c] - max_score);
    denom += (*probs)[c];
  }
  const float inv = 1.0f / denom;
  for (std::int64_t c = 0; c <= r; ++c) (*probs)[c] *= inv;
  return max_score + std::log(denom);
}

}  // namespace

void AttentionForward(const Tensor& q, const Tensor& k, const Tensor& v,
                      int heads, Tensor* out, Tensor* lse) {
  const std::int64_t s = q.rows();
  const std::int64_t h = q.cols();
  MEMO_CHECK_EQ(h % heads, 0);
  const std::int64_t head_dim = h / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<float> probs;
  for (int head = 0; head < heads; ++head) {
    const std::int64_t offset = head * head_dim;
    for (std::int64_t r = 0; r < s; ++r) {
      const float row_lse =
          HeadRowProbs(q, k, head, head_dim, scale, r, &probs);
      if (lse != nullptr) lse->at(r, head) = row_lse;
      for (std::int64_t i = 0; i < head_dim; ++i) {
        float acc = 0.0f;
        for (std::int64_t c = 0; c <= r; ++c) {
          acc += probs[c] * v.at(c, offset + i);
        }
        out->at(r, offset + i) = acc;
      }
    }
  }
}

void AttentionBackward(const Tensor& q, const Tensor& k, const Tensor& v,
                       int heads, const Tensor& dout, Tensor* dq, Tensor* dk,
                       Tensor* dv) {
  const std::int64_t s = q.rows();
  const std::int64_t h = q.cols();
  const std::int64_t head_dim = h / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  dq->Fill(0.0f);
  dk->Fill(0.0f);
  dv->Fill(0.0f);
  std::vector<float> probs;
  std::vector<float> dscore;
  for (int head = 0; head < heads; ++head) {
    const std::int64_t offset = head * head_dim;
    for (std::int64_t r = 0; r < s; ++r) {
      HeadRowProbs(q, k, head, head_dim, scale, r, &probs);
      // dP[c] = dout[r] . v[c];   dV[c] += P[c] * dout[r].
      dscore.assign(r + 1, 0.0f);
      float dot_p_dp = 0.0f;
      for (std::int64_t c = 0; c <= r; ++c) {
        float dp = 0.0f;
        for (std::int64_t i = 0; i < head_dim; ++i) {
          dp += dout.at(r, offset + i) * v.at(c, offset + i);
          dv->at(c, offset + i) += probs[c] * dout.at(r, offset + i);
        }
        dscore[c] = dp;
        dot_p_dp += probs[c] * dp;
      }
      // Softmax backward: dS[c] = P[c] * (dP[c] - sum_j P[j] dP[j]).
      for (std::int64_t c = 0; c <= r; ++c) {
        const float ds = probs[c] * (dscore[c] - dot_p_dp) * scale;
        for (std::int64_t i = 0; i < head_dim; ++i) {
          dq->at(r, offset + i) += ds * k.at(c, offset + i);
          dk->at(c, offset + i) += ds * q.at(r, offset + i);
        }
      }
    }
  }
}

double CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    Tensor* d_logits) {
  const std::int64_t rows = logits.rows();
  const std::int64_t v = logits.cols();
  MEMO_CHECK_EQ(static_cast<std::int64_t>(targets.size()), rows);
  double loss = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* lr = logits.row(r);
    float max_logit = -1e30f;
    for (std::int64_t c = 0; c < v; ++c) {
      if (lr[c] > max_logit) max_logit = lr[c];
    }
    double denom = 0.0;
    for (std::int64_t c = 0; c < v; ++c) {
      denom += std::exp(static_cast<double>(lr[c] - max_logit));
    }
    const int target = targets[r];
    MEMO_CHECK_GE(target, 0);
    MEMO_CHECK_LT(target, v);
    loss += std::log(denom) - (lr[target] - max_logit);
    if (d_logits != nullptr) {
      float* dr = d_logits->row(r);
      for (std::int64_t c = 0; c < v; ++c) {
        const float p = static_cast<float>(
            std::exp(static_cast<double>(lr[c] - max_logit)) / denom);
        dr[c] = (p - (c == target ? 1.0f : 0.0f)) * inv_rows;
      }
    }
  }
  return loss / static_cast<double>(rows);
}

void EmbeddingForward(const Tensor& table, const std::vector<int>& tokens,
                      Tensor* out) {
  const std::int64_t h = table.cols();
  for (std::size_t r = 0; r < tokens.size(); ++r) {
    MEMO_CHECK_GE(tokens[r], 0);
    MEMO_CHECK_LT(tokens[r], table.rows());
    const float* src = table.row(tokens[r]);
    float* dst = out->row(static_cast<std::int64_t>(r));
    for (std::int64_t i = 0; i < h; ++i) dst[i] = src[i];
  }
}

void EmbeddingBackward(const std::vector<int>& tokens, const Tensor& dy,
                       Tensor* dtable) {
  const std::int64_t h = dy.cols();
  for (std::size_t r = 0; r < tokens.size(); ++r) {
    const float* src = dy.row(static_cast<std::int64_t>(r));
    float* dst = dtable->row(tokens[r]);
    for (std::int64_t i = 0; i < h; ++i) dst[i] += src[i];
  }
}

}  // namespace memo::train::reference
