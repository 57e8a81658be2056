#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "train/trainer.h"

namespace memo::train {
namespace {

/// Four layers, so two of them swap: the last two stay in the rounding
/// buffers and never reach the stash (§4.1).
MiniGptConfig TinyModel() {
  MiniGptConfig c;
  c.layers = 4;
  c.hidden = 16;
  c.heads = 2;
  c.ffn = 32;
  c.vocab = 24;
  c.seq = 24;
  return c;
}

TrainRunOptions BaseRun() {
  TrainRunOptions o;
  o.model = TinyModel();
  o.iterations = 60;
  o.seed = 99;
  return o;
}

TEST(ActivationStoreTest, TokenWiseRestoreIsBitExact) {
  // Stash with alpha = 0.25, restore, and compare against retain-all.
  const MiniGptConfig cfg = TinyModel();
  const MiniGptParams params = MiniGptParams::Init(cfg, 7);
  const MiniGpt model(cfg);
  std::vector<int> tokens;
  std::vector<int> targets;
  SyntheticData data(cfg.vocab, 0.9, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);

  // Run the forward through both stores by exercising ForwardBackward and
  // capturing gradients: identical gradients <=> identical restored
  // activations everywhere they matter.
  MiniGptParams grads_a = MiniGptParams::Init(cfg, 7);
  MiniGptParams grads_b = MiniGptParams::Init(cfg, 7);
  for (Tensor* g : grads_a.Flat()) g->Fill(0.0f);
  for (Tensor* g : grads_b.Flat()) g->Fill(0.0f);

  ActivationStore retain(ActivationPolicy::kRetainAll, 1.0, cfg.layers);
  ActivationStore tokenwise(ActivationPolicy::kTokenWise, 0.25, cfg.layers);
  const double loss_a =
      model.ForwardBackward(params, tokens, targets, &retain, &grads_a);
  const double loss_b =
      model.ForwardBackward(params, tokens, targets, &tokenwise, &grads_b);

  EXPECT_EQ(loss_a, loss_b);  // exact
  const auto flat_a = grads_a.Flat();
  const auto flat_b = grads_b.Flat();
  for (std::size_t i = 0; i < flat_a.size(); ++i) {
    EXPECT_TRUE(flat_a[i]->ExactlyEquals(*flat_b[i])) << "tensor " << i;
  }
  EXPECT_GT(tokenwise.recomputed_rows(), 0);
  EXPECT_EQ(retain.recomputed_rows(), 0);
}

TEST(ActivationStoreTest, AlphaControlsStoredBytes) {
  const MiniGptConfig cfg = TinyModel();
  const MiniGptParams params = MiniGptParams::Init(cfg, 7);
  const MiniGpt model(cfg);
  std::vector<int> tokens;
  std::vector<int> targets;
  SyntheticData data(cfg.vocab, 0.9, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);
  MiniGptParams grads = MiniGptParams::Init(cfg, 7);

  std::int64_t previous = 0;
  for (double alpha : {0.0, 0.5, 1.0}) {
    for (Tensor* g : grads.Flat()) g->Fill(0.0f);
    ActivationStore store(ActivationPolicy::kTokenWise, alpha, cfg.layers);
    model.ForwardBackward(params, tokens, targets, &store, &grads);
    EXPECT_GT(store.peak_stored_bytes(), previous);
    previous = store.peak_stored_bytes();
  }
}

TEST(ActivationStoreTest, TokenWiseShrinksDeviceResidency) {
  // The numeric counterpart of the paper's device-memory claim: retain-all
  // keeps all L layers' activations resident; token-wise keeps two rounding
  // buffers regardless of depth, so the ratio approaches L/2.
  const MiniGptConfig cfg = [] {
    MiniGptConfig c = TinyModel();
    c.layers = 6;
    return c;
  }();
  const MiniGptParams params = MiniGptParams::Init(cfg, 7);
  const MiniGpt model(cfg);
  std::vector<int> tokens;
  std::vector<int> targets;
  SyntheticData data(cfg.vocab, 0.9, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);
  MiniGptParams grads = MiniGptParams::Init(cfg, 7);
  for (Tensor* g : grads.Flat()) g->Fill(0.0f);

  ActivationStore retain(ActivationPolicy::kRetainAll, 1.0, cfg.layers);
  model.ForwardBackward(params, tokens, targets, &retain, &grads);
  for (Tensor* g : grads.Flat()) g->Fill(0.0f);
  ActivationStore tokenwise(ActivationPolicy::kTokenWise, 0.25, cfg.layers);
  model.ForwardBackward(params, tokens, targets, &tokenwise, &grads);

  EXPECT_NEAR(static_cast<double>(retain.device_peak_bytes()) /
                  static_cast<double>(tokenwise.device_peak_bytes()),
              cfg.layers / 2.0, 0.2);
}

TEST(ActivationStoreDeathTest, AsyncRestoreOutOfScheduleOrderAborts) {
  // An async store runs one swap schedule. A Restore the schedule has no
  // place for would wait forever on a prefetch that never runs, so it
  // fails a check instead: before forward ends, or skipping a layer.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const MiniGptConfig cfg = TinyModel();
  const LayerParams params;
  EXPECT_DEATH(
      {
        ActivationStore store(ActivationPolicy::kTokenWise, 0.5, cfg.layers,
                              /*async_offload=*/true);
        (void)store.Restore(cfg.layers - 1, params);
      },
      "out of schedule order");
  EXPECT_DEATH(
      {
        ActivationStore store(ActivationPolicy::kTokenWise, 0.5, cfg.layers,
                              /*async_offload=*/true);
        for (int layer = 0; layer < cfg.layers; ++layer) {
          (void)store.Stash(layer, LayerActivations{});
        }
        (void)store.Restore(cfg.layers - 1, params);
        (void)store.Restore(cfg.layers - 3, params);
      },
      "out of schedule order");
}

TEST(TrainerTest, LossDecreasesOnSyntheticLanguage) {
  TrainRunOptions o = BaseRun();
  o.iterations = 150;
  const TrainRunResult r = RunTraining(o);
  ASSERT_EQ(r.losses.size(), 150u);
  double head = 0.0;
  double tail = 0.0;
  for (int i = 0; i < 10; ++i) head += r.losses[i];
  for (int i = 140; i < 150; ++i) tail += r.losses[i];
  EXPECT_LT(tail, head * 0.75) << "model failed to learn";
}

TEST(TrainerTest, Fig12dLossCurvesAlignAcrossAlpha) {
  // The paper's convergence experiment (§5.5): MEMO with alpha in
  // {0, 0.125, 0.25, 0.5, 1} matches the Megatron-style baseline. Our
  // reproduction is stronger: the curves are exactly equal.
  TrainRunOptions baseline = BaseRun();
  baseline.policy = ActivationPolicy::kRetainAll;
  const TrainRunResult reference = RunTraining(baseline);

  for (double alpha : {0.0, 0.125, 0.25, 0.5, 1.0}) {
    TrainRunOptions memo_run = BaseRun();
    memo_run.policy = ActivationPolicy::kTokenWise;
    memo_run.alpha = alpha;
    const TrainRunResult r = RunTraining(memo_run);
    ASSERT_EQ(r.losses.size(), reference.losses.size());
    for (std::size_t i = 0; i < r.losses.size(); ++i) {
      EXPECT_EQ(r.losses[i], reference.losses[i])
          << "alpha " << alpha << " iteration " << i;
    }
  }
}

TEST(TrainerTest, RecomputedRowsMatchAlpha) {
  TrainRunOptions o = BaseRun();
  o.iterations = 4;
  o.policy = ActivationPolicy::kTokenWise;
  o.alpha = 0.25;
  const TrainRunResult r = RunTraining(o);
  // 75% of s rows per swapped layer per iteration; the last two layers are
  // never recomputed.
  const std::int64_t expected = static_cast<std::int64_t>(
      (o.model.layers - 2) * (1.0 - 0.25) * o.model.seq * o.iterations);
  EXPECT_EQ(r.recomputed_rows, expected);
}

TEST(TrainerTest, BatchedTrainingAveragesGradients) {
  TrainRunOptions o = BaseRun();
  o.iterations = 40;
  o.batch = 4;
  const TrainRunResult r = RunTraining(o);
  ASSERT_EQ(r.losses.size(), 40u);
  // Batched runs still learn, and the averaged loss is finite/positive.
  double head = 0.0;
  double tail = 0.0;
  for (int i = 0; i < 5; ++i) head += r.losses[i];
  for (int i = 35; i < 40; ++i) tail += r.losses[i];
  EXPECT_LT(tail, head);
}

TEST(TrainerTest, BatchedCurvesStayAlignedAcrossAlpha) {
  // The Fig 12(d) property must survive batching and clipping.
  TrainRunOptions base = BaseRun();
  base.iterations = 25;
  base.batch = 3;
  base.grad_clip = 1.0;
  base.policy = ActivationPolicy::kRetainAll;
  const TrainRunResult reference = RunTraining(base);
  TrainRunOptions memo_run = base;
  memo_run.policy = ActivationPolicy::kTokenWise;
  memo_run.alpha = 0.125;
  const TrainRunResult r = RunTraining(memo_run);
  EXPECT_EQ(r.losses, reference.losses);
}

TEST(TrainerTest, GradientClippingBoundsTheRecordedNorms) {
  TrainRunOptions o = BaseRun();
  o.iterations = 20;
  o.grad_clip = 0.5;
  const TrainRunResult r = RunTraining(o);
  ASSERT_EQ(r.grad_norms.size(), 20u);
  for (double n : r.grad_norms) EXPECT_GT(n, 0.0);
  // Clipping changes the trajectory versus an unclipped run.
  TrainRunOptions unclipped = BaseRun();
  unclipped.iterations = 20;
  const TrainRunResult u = RunTraining(unclipped);
  EXPECT_TRUE(u.grad_norms.empty());
  EXPECT_NE(u.losses, r.losses);
}

TEST(LrScheduleTest, WarmupAndCosineShape) {
  LrSchedule schedule;
  schedule.warmup_fraction = 0.1;
  schedule.cosine_decay = true;
  schedule.min_lr_fraction = 0.1;
  const int total = 100;
  // Ramps up during warmup.
  EXPECT_NEAR(schedule.Multiplier(0, total), 0.0, 1e-9);
  EXPECT_NEAR(schedule.Multiplier(5, total), 0.5, 1e-9);
  // Peak right after warmup.
  EXPECT_NEAR(schedule.Multiplier(10, total), 1.0, 1e-6);
  // Monotone decay afterwards, floored at min_lr_fraction.
  double previous = 1.1;
  for (int i = 10; i < 100; i += 10) {
    const double m = schedule.Multiplier(i, total);
    EXPECT_LT(m, previous);
    EXPECT_GE(m, 0.1 - 1e-9);
    previous = m;
  }
  // Constant schedule is the default.
  LrSchedule constant;
  EXPECT_DOUBLE_EQ(constant.Multiplier(50, total), 1.0);
}

TEST(LrScheduleTest, ScheduledRunDiffersFromConstant) {
  TrainRunOptions o = BaseRun();
  o.iterations = 30;
  const TrainRunResult constant = RunTraining(o);
  o.lr_schedule.warmup_fraction = 0.2;
  o.lr_schedule.cosine_decay = true;
  const TrainRunResult scheduled = RunTraining(o);
  EXPECT_NE(constant.losses, scheduled.losses);
  // First iteration uses ~zero LR, so its loss matches (update happens
  // after the loss is measured) but the second iteration diverges less.
  EXPECT_EQ(constant.losses[0], scheduled.losses[0]);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  const TrainRunResult a = RunTraining(BaseRun());
  const TrainRunResult b = RunTraining(BaseRun());
  EXPECT_EQ(a.losses, b.losses);
}

TEST(TrainerTest, ValidateRejectsEachOutOfDomainFieldBeforeTraining) {
  ASSERT_TRUE(BaseRun().Validate().ok());
  const struct {
    const char* prefix;  // the message starts with the field's name
    std::function<void(TrainRunOptions*)> mutate;
  } legs[] = {
      {"layers ", [](TrainRunOptions* o) { o->model.layers = 0; }},
      {"hidden ", [](TrainRunOptions* o) { o->model.hidden = 0; }},
      {"heads must be at least 1",
       [](TrainRunOptions* o) { o->model.heads = 0; }},
      {"heads must be a divisor of hidden",
       [](TrainRunOptions* o) { o->model.heads = 3; }},
      {"ffn ", [](TrainRunOptions* o) { o->model.ffn = 0; }},
      {"vocab ", [](TrainRunOptions* o) { o->model.vocab = 0; }},
      {"seq ", [](TrainRunOptions* o) { o->model.seq = 0; }},
      {"iterations ", [](TrainRunOptions* o) { o->iterations = 0; }},
      {"batch ", [](TrainRunOptions* o) { o->batch = 0; }},
      {"alpha ", [](TrainRunOptions* o) { o->alpha = 2.0; }},
      {"alpha ", [](TrainRunOptions* o) { o->alpha = std::nan(""); }},
      {"grad_clip ", [](TrainRunOptions* o) { o->grad_clip = -1.0; }},
      {"data_fidelity ", [](TrainRunOptions* o) { o->data_fidelity = 1.5; }},
      {"checkpoint_every ",
       [](TrainRunOptions* o) { o->checkpoint_every = -1; }},
      {"resume and checkpoint_every require checkpoint_dir",
       [](TrainRunOptions* o) { o->checkpoint_every = 2; }},
      {"resume and checkpoint_every require checkpoint_dir",
       [](TrainRunOptions* o) { o->resume = true; }},
      {"ram_capacity_bytes ",
       [](TrainRunOptions* o) { o->backend.ram_capacity_bytes = -1; }},
      {"disk.bytes_per_second ",
       [](TrainRunOptions* o) { o->backend.disk.bytes_per_second = -1.0; }},
      {"disk.page_bytes ",
       [](TrainRunOptions* o) { o->backend.disk.page_bytes = 0; }},
  };
  for (const auto& leg : legs) {
    TrainRunOptions options = BaseRun();
    leg.mutate(&options);
    const Status valid = options.Validate();
    EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument) << leg.prefix;
    EXPECT_EQ(valid.message().rfind(leg.prefix, 0), 0u)
        << leg.prefix << " vs " << valid.message();
    // RunTraining hands back the same rejection and trains nothing.
    const TrainRunResult run = RunTraining(options);
    EXPECT_EQ(run.status.message(), valid.message());
    EXPECT_TRUE(run.losses.empty()) << leg.prefix;
  }
}

TEST(SyntheticDataTest, FollowsPermutationMostly) {
  SyntheticData data(16, 0.9, 42);
  std::vector<int> tokens;
  std::vector<int> targets;
  data.NextSequence(4000, &tokens, &targets);
  // Learnable: the same current token maps to the same next token >= 80%
  // of the time.
  std::vector<std::vector<int>> counts(16, std::vector<int>(16, 0));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    counts[tokens[i]][targets[i]]++;
  }
  int dominant = 0;
  int total = 0;
  for (int t = 0; t < 16; ++t) {
    int best = 0;
    int sum = 0;
    for (int n = 0; n < 16; ++n) {
      best = std::max(best, counts[t][n]);
      sum += counts[t][n];
    }
    dominant += best;
    total += sum;
  }
  EXPECT_GT(static_cast<double>(dominant) / total, 0.8);
}

}  // namespace
}  // namespace memo::train
