#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>

#include "common/simd.h"
#include "train/checkpoint.h"
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
  SyntheticData data(cfg.vocab, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);

  // Run the forward through both stores by exercising ForwardBackward and
  // capturing gradients: identical gradients <=> identical restored
  // activations everywhere they matter.
  MiniGptParams grads_a = MiniGptParams::Zeros(cfg);
  MiniGptParams grads_b = MiniGptParams::Zeros(cfg);

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
  SyntheticData data(cfg.vocab, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);
  MiniGptParams grads = MiniGptParams::Zeros(cfg);

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
  SyntheticData data(cfg.vocab, 3);
  data.NextSequence(cfg.seq, &tokens, &targets);
  MiniGptParams grads = MiniGptParams::Zeros(cfg);

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
  // An async store runs one pass of the swap schedule per step. A call the
  // schedule has no place for would wait forever on an op that never
  // runs, so it fails a check instead: a Restore before forward ends or
  // skipping a layer, and a Stash(0) before the step's bwd(0) is due.
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
  EXPECT_DEATH(
      {
        ActivationStore store(ActivationPolicy::kTokenWise, 0.5, cfg.layers,
                              /*async_offload=*/true);
        (void)store.Stash(0, LayerActivations{});
        (void)store.Stash(1, LayerActivations{});
        (void)store.Stash(0, LayerActivations{});
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

TEST(TrainerTest, DeterministicAcrossRuns) {
  const TrainRunResult a = RunTraining(BaseRun());
  const TrainRunResult b = RunTraining(BaseRun());
  EXPECT_EQ(a.losses, b.losses);
}

TEST(TrainerTest, CheckpointFingerprintIsPinned) {
  // A run resumes only checkpoints of its own fingerprint, so this literal
  // is what keeps checkpoints written by earlier builds resumable: moving
  // any key the fingerprint hashes fails here.
  const std::string dir = ::testing::TempDir() + "trainer_pinned_ckpt";
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& f : ListCheckpoints(dir)) std::remove(f.c_str());
  TrainRunOptions o = BaseRun();
  o.checkpoint_dir = dir;
  o.checkpoint_every = o.iterations;
  ASSERT_TRUE(RunTraining(o).status.ok());
  const StatusOr<CheckpointState> saved =
      LoadCheckpoint(dir + "/" + CheckpointFileName(o.iterations));
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved->config_fingerprint, 0x463856d2201c3f06ULL);
}

TEST(TrainerTest, ScalarLossesArePinned) {
  // At the scalar tier every kernel keeps the reference's per-element
  // arithmetic, so these bits move only when the numerics do: an op that
  // reads an output it did not write, a recompute that drifts from the
  // forward, or a stash tier that changes a byte. The literals were
  // computed with an earlier build. Four layers at seq 512 overflow the
  // 1 MiB RAM tier, so the async copier and the disk lane both run.
  const ScopedSimdLevel scalar(SimdLevel::kScalar);
  TrainRunOptions o;
  o.model = {.layers = 4, .hidden = 32, .heads = 4, .ffn = 128,
             .vocab = 64, .seq = 512};
  o.policy = ActivationPolicy::kTokenWise;
  o.alpha = 0.5;
  o.async_offload = true;
  o.backend.kind = offload::BackendKind::kTiered;
  o.backend.ram_capacity_bytes = 1 << 20;
  o.backend.disk.directory = ::testing::TempDir();
  o.iterations = 3;
  o.seed = 99;
  const TrainRunResult run = RunTraining(o);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_GT(run.offload_stats.disk_tier.put_bytes, 0);
  const std::uint64_t pinned[] = {0x4011593cc90feefeULL, 0x4010d2d5f8d39819ULL,
                                  0x4010425845868ae2ULL};
  ASSERT_EQ(run.losses.size(), std::size(pinned));
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &run.losses[i], sizeof(bits));
    EXPECT_EQ(bits, pinned[i]) << "iteration " << i << ": loss "
                               << run.losses[i] << " has bits 0x" << std::hex
                               << bits;
  }
}

TEST(TrainerTest, NativeTierTokenWiseMatchesRetainAllThroughDisk) {
  // At the CPU's own SIMD tier the attention backward rebuilds P from the
  // log-sum-exp the forward saved, so a swapped layer's attn_lse must come
  // back from the stash bit for bit: through the 1 MiB RAM tier and the
  // disk tier, inline and async, token-wise losses equal retain-all's.
  const ScopedSimdLevel native(CpuSimdLevel());
  TrainRunOptions o;
  o.model = {.layers = 4, .hidden = 32, .heads = 4, .ffn = 128,
             .vocab = 64, .seq = 512};
  o.iterations = 3;
  o.seed = 99;
  o.policy = ActivationPolicy::kRetainAll;
  const TrainRunResult reference = RunTraining(o);
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  o.policy = ActivationPolicy::kTokenWise;
  o.alpha = 0.5;
  o.backend.kind = offload::BackendKind::kTiered;
  o.backend.ram_capacity_bytes = 1 << 20;
  o.backend.disk.directory = ::testing::TempDir();
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    o.async_offload = async;
    const TrainRunResult run = RunTraining(o);
    ASSERT_TRUE(run.status.ok()) << run.status;
    EXPECT_GT(run.offload_stats.disk_tier.put_bytes, 0);
    EXPECT_EQ(run.losses, reference.losses);
  }
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
      {"alpha ", [](TrainRunOptions* o) { o->alpha = 2.0; }},
      {"alpha ", [](TrainRunOptions* o) { o->alpha = std::nan(""); }},
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
      // Far below 1 MB/s a blob's emulated wait no longer fits in int64
      // microseconds.
      {"disk.bytes_per_second ",
       [](TrainRunOptions* o) { o->backend.disk.bytes_per_second = 1e-300; }},
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
  SyntheticData data(16, 42);
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
