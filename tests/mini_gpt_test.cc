#include <gtest/gtest.h>
#include <set>

#include <cmath>

#include "train/mini_gpt.h"
#include "train/trainer.h"

namespace memo::train {
namespace {

MiniGptConfig GradcheckModel() {
  MiniGptConfig c;
  c.layers = 2;
  c.hidden = 8;
  c.heads = 2;
  c.ffn = 16;
  c.vocab = 11;
  c.seq = 7;
  return c;
}

TEST(MiniGptTest, FullModelGradientCheck) {
  // Central-difference check of dLoss/dParam through the ENTIRE network
  // (embedding -> 3 transformer layers -> final LN -> classifier -> CE),
  // including the attention backward that recomputes probabilities. With
  // three layers the first one goes through the stash and token-wise
  // recompute; the last two stay in the rounding buffers.
  MiniGptConfig cfg = GradcheckModel();
  cfg.layers = 3;
  const MiniGpt model(cfg);
  MiniGptParams params = MiniGptParams::Init(cfg, 31);
  MiniGptParams grads = MiniGptParams::Zeros(cfg);

  SyntheticData data(cfg.vocab, 17);
  std::vector<int> tokens;
  std::vector<int> targets;
  data.NextSequence(cfg.seq, &tokens, &targets);

  ActivationStore store(ActivationPolicy::kTokenWise, 0.5, cfg.layers);
  model.ForwardBackward(params, tokens, targets, &store, &grads);

  auto flat_params = params.Flat();
  auto flat_grads = grads.Flat();
  const double eps = 1e-3;
  int checked = 0;
  for (std::size_t t = 0; t < flat_params.size(); ++t) {
    Tensor* p = flat_params[t];
    const Tensor* g = flat_grads[t];
    // Probe a few entries per tensor.
    const std::int64_t stride = std::max<std::int64_t>(1, p->size() / 3);
    for (std::int64_t i = 0; i < p->size(); i += stride) {
      const float original = p->data()[i];
      p->data()[i] = original + static_cast<float>(eps);
      const double up = model.Loss(params, tokens, targets);
      p->data()[i] = original - static_cast<float>(eps);
      const double down = model.Loss(params, tokens, targets);
      p->data()[i] = original;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(numeric, g->data()[i], 5e-3)
          << "param tensor " << t << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(MiniGptTest, LossMatchesForwardBackwardLoss) {
  const MiniGptConfig cfg = GradcheckModel();
  const MiniGpt model(cfg);
  const MiniGptParams params = MiniGptParams::Init(cfg, 5);
  MiniGptParams grads = MiniGptParams::Zeros(cfg);
  SyntheticData data(cfg.vocab, 2);
  std::vector<int> tokens;
  std::vector<int> targets;
  data.NextSequence(cfg.seq, &tokens, &targets);
  ActivationStore store(ActivationPolicy::kRetainAll, 1.0, cfg.layers);
  const double a = model.ForwardBackward(params, tokens, targets, &store,
                                         &grads);
  const double b = model.Loss(params, tokens, targets);
  EXPECT_EQ(a, b);
}

TEST(MiniGptTest, ParamsFlatCoversEveryTensorOnce) {
  MiniGptParams params = MiniGptParams::Init(GradcheckModel(), 1);
  const auto flat = params.Flat();
  // 1 embedding + 12 per layer x 2 layers + 2 final LN + 1 classifier.
  EXPECT_EQ(flat.size(), 1u + 12u * 2 + 2 + 1);
  std::set<const Tensor*> unique(flat.begin(), flat.end());
  EXPECT_EQ(unique.size(), flat.size());
  for (const Tensor* t : flat) EXPECT_GT(t->size(), 0);
}

TEST(MiniGptTest, InitIsSeedDeterministic) {
  const MiniGptConfig cfg = GradcheckModel();
  MiniGptParams a = MiniGptParams::Init(cfg, 9);
  MiniGptParams b = MiniGptParams::Init(cfg, 9);
  MiniGptParams c = MiniGptParams::Init(cfg, 10);
  EXPECT_TRUE(a.embedding.ExactlyEquals(b.embedding));
  EXPECT_TRUE(a.layers[0].wq.ExactlyEquals(b.layers[0].wq));
  EXPECT_FALSE(a.embedding.ExactlyEquals(c.embedding));
}

TEST(MiniGptTest, ZerosHasInitShapesAndOnlyZeros) {
  // 41k elements, so the zero fill spans several pool chunks.
  MiniGptConfig cfg = GradcheckModel();
  cfg.layers = 3;
  cfg.hidden = 32;
  cfg.ffn = 128;
  cfg.vocab = 64;
  MiniGptParams init = MiniGptParams::Init(cfg, 4);
  // Freed drawn weights first, so Zeros likely gets written memory back.
  { const MiniGptParams freed = MiniGptParams::Init(cfg, 5); }
  MiniGptParams zeros = MiniGptParams::Zeros(cfg);
  const auto flat_init = init.Flat();
  const auto flat_zeros = zeros.Flat();
  ASSERT_EQ(flat_zeros.size(), flat_init.size());
  for (std::size_t t = 0; t < flat_init.size(); ++t) {
    EXPECT_EQ(flat_zeros[t]->rows(), flat_init[t]->rows()) << "tensor " << t;
    EXPECT_EQ(flat_zeros[t]->cols(), flat_init[t]->cols()) << "tensor " << t;
    Tensor zero(flat_init[t]->rows(), flat_init[t]->cols());
    EXPECT_TRUE(flat_zeros[t]->ExactlyEquals(zero)) << "tensor " << t;
  }
}

}  // namespace
}  // namespace memo::train
