#include "train/mini_gpt.h"

#include <cmath>
#include <utility>

#include "obs/trace_recorder.h"

namespace memo::train {

MiniGptParams MiniGptParams::Uninitialized(const MiniGptConfig& config) {
  const int h = config.hidden;
  const auto make = &Tensor::Uninitialized;
  MiniGptParams p;
  p.embedding = make(config.vocab, h);
  p.layers.resize(config.layers);
  for (LayerParams& l : p.layers) {
    l.ln1_g = make(1, h);
    l.ln1_b = make(1, h);
    l.wq = make(h, h);
    l.wk = make(h, h);
    l.wv = make(h, h);
    l.wo = make(h, h);
    l.ln2_g = make(1, h);
    l.ln2_b = make(1, h);
    l.w1 = make(h, config.ffn);
    l.b1 = make(1, config.ffn);
    l.w2 = make(config.ffn, h);
    l.b2 = make(1, h);
  }
  p.lnf_g = make(1, h);
  p.lnf_b = make(1, h);
  p.w_cls = make(h, config.vocab);
  return p;
}

MiniGptParams MiniGptParams::Zeros(const MiniGptConfig& config) {
  MiniGptParams p = Uninitialized(config);
  FillZeros(p.Flat());
  return p;
}

MiniGptParams MiniGptParams::Init(const MiniGptConfig& config,
                                  std::uint64_t seed) {
  MiniGptParams p = Uninitialized(config);
  std::vector<Tensor*> weights = {&p.embedding};
  for (LayerParams& l : p.layers) {
    for (Tensor* gain : {&l.ln1_g, &l.ln2_g}) gain->Fill(1.0f);
    for (Tensor* bias : {&l.ln1_b, &l.ln2_b, &l.b1, &l.b2}) bias->Fill(0.0f);
    for (Tensor* w : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2}) {
      weights.push_back(w);
    }
  }
  p.lnf_g.Fill(1.0f);
  p.lnf_b.Fill(0.0f);
  weights.push_back(&p.w_cls);
  Rng rng(seed);
  FillGaussian(weights, /*stddev=*/0.08, rng);
  return p;
}

std::vector<Tensor*> MiniGptParams::Flat() {
  std::vector<Tensor*> out = {&embedding};
  for (LayerParams& l : layers) {
    for (Tensor* t : {&l.ln1_g, &l.ln1_b, &l.wq, &l.wk, &l.wv, &l.wo,
                      &l.ln2_g, &l.ln2_b, &l.w1, &l.b1, &l.w2, &l.b2}) {
      out.push_back(t);
    }
  }
  out.push_back(&lnf_g);
  out.push_back(&lnf_b);
  out.push_back(&w_cls);
  return out;
}

namespace {

/// Forward of one transformer layer on its input `x`, which it moves into
/// `acts`; fills `acts` and returns the layer output (input of the next
/// layer).
Tensor LayerForward(const LayerParams& l, int heads, Tensor x,
                    LayerActivations* acts) {
  const std::int64_t s = x.rows();
  const std::int64_t h = x.cols();
  acts->input = std::move(x);
  const Tensor resid1 = LayerForwardRows(l, heads, 0, s, acts);
  Tensor fc2_out = Tensor::Uninitialized(s, h);
  LinearForward(acts->gelu_out, l.w2, l.b2, &fc2_out);
  Tensor out = Tensor::Uninitialized(s, h);
  AddRows(resid1, fc2_out, 0, s, &out);
  return out;
}

/// Backward of one transformer layer given the restored activations and the
/// gradient of the layer output; returns the gradient of the layer input
/// and accumulates parameter gradients.
Tensor LayerBackward(const LayerParams& l, int heads,
                     const LayerActivations& acts, const Tensor& dout,
                     LayerParams* g) {
  const std::int64_t s = acts.input.rows();
  const std::int64_t h = acts.input.cols();
  const std::int64_t ffn = l.w1.cols();

  // Recompute resid1 = input + proj_out (transient, Fig. 4's tensor 15-like
  // recompute-by-add). Every temporary below is written in full by the op
  // that produces it (train/ops.h), so none is zero-filled.
  Tensor resid1 = Tensor::Uninitialized(s, h);
  AddRows(acts.input, acts.proj_out, 0, s, &resid1);

  // out = resid1 + fc2(gelu(fc1(ln2(resid1)))): dout flows to both branches.
  Tensor d_gelu = Tensor::Uninitialized(s, ffn);
  LinearBackward(acts.gelu_out, l.w2, dout, &d_gelu, &g->w2, &g->b2);
  Tensor d_fc1 = Tensor::Uninitialized(s, ffn);
  GeluBackward(acts.fc1_out, d_gelu, &d_fc1);
  Tensor d_ln2 = Tensor::Uninitialized(s, h);
  LinearBackward(acts.ln2_out, l.w1, d_fc1, &d_ln2, &g->w1, &g->b1);
  Tensor d_resid1 = Tensor::Uninitialized(s, h);
  LayerNormBackward(resid1, l.ln2_g, acts.ln2_rstd, d_ln2, &d_resid1,
                    &g->ln2_g, &g->ln2_b);
  AddRows(d_resid1, dout, 0, s, &d_resid1);

  // resid1 = input + proj(attn(qkv(ln1(input)))).
  Tensor d_attn = Tensor::Uninitialized(s, h);
  LinearBackward(acts.attn_out, l.wo, d_resid1, &d_attn, &g->wo, nullptr);
  Tensor dq = Tensor::Uninitialized(s, h);
  Tensor dk = Tensor::Uninitialized(s, h);
  Tensor dv = Tensor::Uninitialized(s, h);
  AttentionBackward(acts.q, acts.k, acts.v, heads, acts.attn_out,
                    acts.attn_lse, d_attn, &dq, &dk, &dv);
  Tensor d_ln1 = Tensor::Uninitialized(s, h);
  Tensor d_ln1_partial = Tensor::Uninitialized(s, h);
  LinearBackward(acts.ln1_out, l.wq, dq, &d_ln1, &g->wq, nullptr);
  LinearBackward(acts.ln1_out, l.wk, dk, &d_ln1_partial, &g->wk, nullptr);
  AddRows(d_ln1, d_ln1_partial, 0, s, &d_ln1);
  LinearBackward(acts.ln1_out, l.wv, dv, &d_ln1_partial, &g->wv, nullptr);
  AddRows(d_ln1, d_ln1_partial, 0, s, &d_ln1);
  Tensor d_input = Tensor::Uninitialized(s, h);
  LayerNormBackward(acts.input, l.ln1_g, acts.ln1_rstd, d_ln1, &d_input,
                    &g->ln1_g, &g->ln1_b);
  AddRows(d_input, d_resid1, 0, s, &d_input);  // residual path
  return d_input;
}

}  // namespace

double MiniGpt::ForwardBackward(const MiniGptParams& params,
                                const std::vector<int>& tokens,
                                const std::vector<int>& targets,
                                ActivationStore* store,
                                MiniGptParams* grads) const {
  const StatusOr<double> loss =
      TryForwardBackward(params, tokens, targets, store, grads);
  MEMO_CHECK(loss.ok()) << "forward/backward failed: "
                        << loss.status().ToString()
                        << " (host capacity below the solver's minimum? "
                           "use the tiered backend to spill to disk)";
  return loss.value();
}

StatusOr<double> MiniGpt::TryForwardBackward(const MiniGptParams& params,
                                             const std::vector<int>& tokens,
                                             const std::vector<int>& targets,
                                             ActivationStore* store,
                                             MiniGptParams* grads) const {
  const std::int64_t s = static_cast<std::int64_t>(tokens.size());
  const int h = config_.hidden;

  // ---- Forward.
  Tensor x = Tensor::Uninitialized(s, h);
  EmbeddingForward(params.embedding, tokens, &x);
  {
    MEMO_TRACE_SCOPE("forward", "train");
    for (int layer = 0; layer < config_.layers; ++layer) {
      LayerActivations acts;
      Tensor out;
      {
        MEMO_TRACE_SCOPE_ARG("layer_fwd", "train", "layer", layer);
        out = LayerForward(params.layers[layer], config_.heads, std::move(x),
                           &acts);
      }
      MEMO_RETURN_IF_ERROR(store->Stash(layer, std::move(acts)));
      x = std::move(out);
    }
  }
  Tensor lnf_out = Tensor::Uninitialized(s, h);
  Tensor lnf_rstd = Tensor::Uninitialized(s, 1);
  Tensor d_logits = Tensor::Uninitialized(s, config_.vocab);
  double loss = 0.0;
  {
    MEMO_TRACE_SCOPE("classifier", "train");
    LayerNormForward(x, params.lnf_g, params.lnf_b, &lnf_out, &lnf_rstd);
    Tensor logits = Tensor::Uninitialized(s, config_.vocab);
    const Tensor kNoBias;
    LinearForward(lnf_out, params.w_cls, kNoBias, &logits);
    loss = CrossEntropy(logits, targets, &d_logits);
  }

  // ---- Backward.
  MEMO_TRACE_SCOPE("backward", "train");
  Tensor d_lnf = Tensor::Uninitialized(s, h);
  LinearBackward(lnf_out, params.w_cls, d_logits, &d_lnf, &grads->w_cls,
                 nullptr);
  Tensor d_x = Tensor::Uninitialized(s, h);
  LayerNormBackward(x, params.lnf_g, lnf_rstd, d_lnf, &d_x, &grads->lnf_g,
                    &grads->lnf_b);
  for (int layer = config_.layers - 1; layer >= 0; --layer) {
    MEMO_ASSIGN_OR_RETURN(LayerActivations acts,
                          store->Restore(layer, params.layers[layer]));
    {
      MEMO_TRACE_SCOPE_ARG("layer_bwd", "train", "layer", layer);
      d_x = LayerBackward(params.layers[layer], config_.heads, acts, d_x,
                          &grads->layers[layer]);
    }
    store->Recycle(layer, std::move(acts));  // bwd(layer) ends
  }
  EmbeddingBackward(tokens, d_x, &grads->embedding);
  return loss;
}

double MiniGpt::Loss(const MiniGptParams& params,
                     const std::vector<int>& tokens,
                     const std::vector<int>& targets) const {
  const std::int64_t s = static_cast<std::int64_t>(tokens.size());
  const int h = config_.hidden;
  Tensor x = Tensor::Uninitialized(s, h);
  EmbeddingForward(params.embedding, tokens, &x);
  for (int layer = 0; layer < config_.layers; ++layer) {
    LayerActivations acts;
    x = LayerForward(params.layers[layer], config_.heads, std::move(x), &acts);
  }
  Tensor lnf_out = Tensor::Uninitialized(s, h);
  Tensor lnf_rstd = Tensor::Uninitialized(s, 1);
  LayerNormForward(x, params.lnf_g, params.lnf_b, &lnf_out, &lnf_rstd);
  Tensor logits = Tensor::Uninitialized(s, config_.vocab);
  const Tensor kNoBias;
  LinearForward(lnf_out, params.w_cls, kNoBias, &logits);
  return CrossEntropy(logits, targets, nullptr);
}

}  // namespace memo::train
