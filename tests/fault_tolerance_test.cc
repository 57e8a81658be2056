// End-to-end fault-tolerance matrix for the training runtime: retries
// absorbing transient faults, giveup accounting when they cannot, the
// kill-and-resume bit-exactness guarantee, and the RAM-only degradation
// ladder after a permanent disk death. Every leg drives RunTraining (or a
// real DiskBackend) under the seeded FaultInjector, so the schedules are
// deterministic and the loss comparisons are exact. The disk legs run both
// inline and async, where the fault hits the store's disk lane.

#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "obs/metrics.h"
#include "offload/disk_backend.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace memo::train {
namespace {

/// Every leg must leave the process-wide injector disarmed, even on an
/// assertion failure mid-test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

/// Four layers, so two of them swap: the last two stay in the rounding
/// buffers and never reach the stash backend (§4.1).
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
  o.policy = ActivationPolicy::kTokenWise;
  o.alpha = 1.0;
  o.iterations = 8;
  o.seed = 424242;
  return o;
}

std::string FreshCheckpointDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& f : ListCheckpoints(dir)) std::remove(f.c_str());
  return dir;
}

std::int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

void ExpectLossesIdentical(const std::vector<double>& a,
                           const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "loss diverged at iteration " << i;
  }
}

TEST(FaultToleranceTest, TransientDiskFaultIsAbsorbedByPageRetry) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    InjectorGuard guard;
    TrainRunOptions fault_free = BaseRun();
    fault_free.backend.kind = offload::BackendKind::kDisk;
    fault_free.iterations = 4;
    fault_free.async_offload = async;
    const TrainRunResult reference = RunTraining(fault_free);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    // One injected pwrite fault: the disk tier's per-page retry re-attempts
    // and the run never notices beyond the retry counters.
    const std::int64_t retries_before =
        CounterValue("retry.disk.page_write.retries");
    FaultRule rule;
    rule.nth = 1;
    rule.max_failures = 1;
    FaultInjector::Global().Arm("disk.page_write", rule);
    const TrainRunResult faulted = RunTraining(fault_free);
    FaultInjector::Global().Reset();

    ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
    EXPECT_FALSE(faulted.degraded);
    ExpectLossesIdentical(faulted.losses, reference.losses);
    EXPECT_GT(CounterValue("retry.disk.page_write.retries"), retries_before);
  }
}

TEST(FaultToleranceTest, RamFaultsAreAbsorbedByTheWholeBlobRetry) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    InjectorGuard guard;
    TrainRunOptions options = BaseRun();
    options.iterations = 4;
    options.async_offload = async;
    const TrainRunResult reference = RunTraining(options);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    // One failed host copy each way: a failed put or take leaves the blob
    // where it was, so the store's whole-blob retry re-runs it and the run
    // never notices beyond the retry counters.
    const std::int64_t put_retries = CounterValue("retry.stash.put.retries");
    const std::int64_t take_retries =
        CounterValue("retry.restore.take.retries");
    FaultRule once;
    once.nth = 1;
    once.max_failures = 1;
    FaultInjector::Global().Arm("ram.put", once);
    FaultInjector::Global().Arm("ram.take", once);
    const TrainRunResult faulted = RunTraining(options);
    EXPECT_EQ(FaultInjector::Global().failures("ram.put"), 1);
    EXPECT_EQ(FaultInjector::Global().failures("ram.take"), 1);
    FaultInjector::Global().Reset();

    ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
    EXPECT_FALSE(faulted.degraded);
    ExpectLossesIdentical(faulted.losses, reference.losses);
    EXPECT_EQ(CounterValue("retry.stash.put.retries"), put_retries + 1);
    EXPECT_EQ(CounterValue("retry.restore.take.retries"), take_retries + 1);
    EXPECT_EQ(faulted.offload_stats.ram_tier.put_bytes,
              reference.offload_stats.ram_tier.put_bytes);
  }
}

TEST(FaultToleranceTest, ExhaustedRetriesGiveUpWithAccounting) {
  InjectorGuard guard;
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);

  const std::int64_t giveups_before =
      CounterValue("retry.disk.page_write.giveups");
  const std::int64_t total_giveups_before = CounterValue("retry.giveups");
  offload::DiskBackend backend;
  const Status st = backend.Put(7, std::string(1024, 'x'));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected"), std::string::npos)
      << st.ToString();
  EXPECT_GT(CounterValue("retry.disk.page_write.giveups"), giveups_before);
  EXPECT_GT(CounterValue("retry.giveups"), total_giveups_before);

  // The permanent rule kept firing through every backoff attempt.
  EXPECT_GE(FaultInjector::Global().failures("disk.page_write"), 3);
}

TEST(FaultToleranceTest, KilledRunResumesBitIdentically) {
  InjectorGuard guard;

  // Reference: the same configuration, never interrupted.
  TrainRunOptions reference_options = BaseRun();
  const TrainRunResult reference = RunTraining(reference_options);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_EQ(reference.losses.size(), 8u);

  // Probe run: count stash puts per iteration with a never-firing rule so
  // the kill below lands mid-run regardless of layer/batch layout.
  FaultInjector::Global().Arm("ram.put", FaultRule{});
  TrainRunOptions probe = BaseRun();
  probe.iterations = 2;
  ASSERT_TRUE(RunTraining(probe).status.ok());
  const std::int64_t puts_per_iteration =
      FaultInjector::Global().calls("ram.put") / 2;
  ASSERT_GT(puts_per_iteration, 0);
  FaultInjector::Global().Reset();

  // Interrupted run: the stash backend dies during iteration 6 (after the
  // checkpoints at steps 2 and 4) and degradation is disabled, so the run
  // stops — the "kill" — with its periodic checkpoints on disk.
  const std::string dir = FreshCheckpointDir("fault_resume_ckpts");
  TrainRunOptions interrupted = BaseRun();
  interrupted.checkpoint_dir = dir;
  interrupted.checkpoint_every = 2;
  interrupted.allow_degraded = false;
  FaultRule kill;
  kill.probability = 1.0;
  kill.after = puts_per_iteration * 5;
  kill.permanent = true;
  FaultInjector::Global().Arm("ram.put", kill);
  const TrainRunResult killed = RunTraining(interrupted);
  FaultInjector::Global().Reset();

  ASSERT_FALSE(killed.status.ok());
  EXPECT_EQ(killed.losses.size(), 5u);
  EXPECT_EQ(killed.checkpoints_written, 2);
  ASSERT_EQ(ListCheckpoints(dir).size(), 2u);

  // Resume with the identical options: picks up at step 4 and replays the
  // remaining iterations to a loss curve bit-identical to the
  // uninterrupted reference.
  TrainRunOptions resumed_options = interrupted;
  resumed_options.resume = true;
  const TrainRunResult resumed = RunTraining(resumed_options);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.resumed_from_step, 4);
  EXPECT_FALSE(resumed.degraded);
  ExpectLossesIdentical(resumed.losses, reference.losses);
}

TEST(FaultToleranceTest, ResumeRefusesACheckpointThatDoesNotFitTheRun) {
  // Each edit keeps the fingerprint and re-seals the checksum, so only a
  // check of the contents against the run stops it; each used to crash the
  // run or the CLI that prints its last loss.
  InjectorGuard guard;
  TrainRunOptions options = BaseRun();
  options.checkpoint_dir = FreshCheckpointDir("fault_misfit_source");
  options.checkpoint_every = 4;
  ASSERT_TRUE(RunTraining(options).status.ok());
  const StatusOr<CheckpointState> saved = LoadCheckpoint(
      options.checkpoint_dir + "/" + CheckpointFileName(4));
  ASSERT_TRUE(saved.ok()) << saved.status();
  ASSERT_FALSE(saved->adam_m.empty());

  const struct {
    const char* field;  // the status names it
    std::function<void(CheckpointState*)> edit;
  } legs[] = {
      // Flat order: embedding, then layer 0's ln1 g/b and wq.
      {"params[3]", [](CheckpointState* s) { s->params[3] = Tensor(8, 16); }},
      {"adam_m[0]", [](CheckpointState* s) { s->adam_m[0] = Tensor(1, 1); }},
      {"last_token", [](CheckpointState* s) { s->last_token = -100000000; }},
      {"losses",
       [](CheckpointState* s) {
         s->step = 8;
         s->losses.clear();
       }},
      // Adam's bias correction divides by 1 - beta^(adam_step + 1).
      {"adam_step", [](CheckpointState* s) { s->adam_step = -1; }},
  };
  for (const auto& leg : legs) {
    SCOPED_TRACE(leg.field);
    CheckpointState edited = *saved;
    leg.edit(&edited);
    TrainRunOptions resume = options;
    resume.checkpoint_dir = FreshCheckpointDir("fault_misfit_resume");
    resume.resume = true;
    ASSERT_TRUE(SaveCheckpoint(resume.checkpoint_dir, edited).ok());
    const TrainRunResult result = RunTraining(resume);
    EXPECT_EQ(result.status.code(), StatusCode::kInternal)
        << result.status.ToString();
    EXPECT_NE(result.status.message().find(leg.field), std::string::npos)
        << result.status.ToString();
    EXPECT_TRUE(result.losses.empty());
  }
}

TEST(FaultToleranceTest, PermanentDiskDeathFinishesDegradedOnRam) {
  InjectorGuard guard;
  const TrainRunResult reference = RunTraining(BaseRun());
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    // Tiered stash with a RAM tier too small for the blobs, so every
    // iteration must spill — and the spill device dies on first touch. In
    // async mode the fault hits the disk lane and surfaces at the next
    // Stash or Restore.
    TrainRunOptions tiered = BaseRun();
    tiered.backend.kind = offload::BackendKind::kTiered;
    tiered.backend.ram_capacity_bytes = 1024;
    tiered.async_offload = async;
    FaultRule dead_disk;
    dead_disk.nth = 1;
    dead_disk.permanent = true;
    FaultInjector::Global().Arm("disk.page_write", dead_disk);

    const std::int64_t degraded_before = CounterValue("train.degraded_runs");
    const TrainRunResult degraded = RunTraining(tiered);
    FaultInjector::Global().Reset();

    ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
    EXPECT_TRUE(degraded.degraded);
    EXPECT_GT(CounterValue("train.degraded_runs"), degraded_before);
    // Restores are bit-exact on every backend, so finishing on the RAM
    // fallback does not move the loss curve by a single ULP.
    ExpectLossesIdentical(degraded.losses, reference.losses);
    // The disk dies part-way through iteration 0, while the arena is still
    // measuring: the RAM-only re-run is the step it plans from, so every
    // later iteration replays that one plan without a heap fallback.
    EXPECT_EQ(degraded.arena_plan_divergences, 0);
    EXPECT_EQ(degraded.arena_heap_fallback_allocs, 0);
    EXPECT_EQ(degraded.arena_planned_steps, tiered.iterations - 1);
  }
}

TEST(FaultToleranceTest, DegradationCanBeDisabled) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    InjectorGuard guard;
    TrainRunOptions tiered = BaseRun();
    tiered.iterations = 3;
    tiered.backend.kind = offload::BackendKind::kTiered;
    tiered.backend.ram_capacity_bytes = 1024;
    tiered.allow_degraded = false;
    tiered.async_offload = async;
    FaultRule dead_disk;
    dead_disk.nth = 1;
    dead_disk.permanent = true;
    FaultInjector::Global().Arm("disk.page_write", dead_disk);

    const TrainRunResult result = RunTraining(tiered);
    FaultInjector::Global().Reset();
    ASSERT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::kInternal);
    EXPECT_FALSE(result.degraded);
    EXPECT_TRUE(result.losses.empty());
  }
}

TEST(FaultToleranceTest, SeededProbabilisticFaultsNeverChangeTheLosses) {
  for (bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "inline");
    InjectorGuard guard;
    TrainRunOptions options = BaseRun();
    options.backend.kind = offload::BackendKind::kDisk;
    options.iterations = 5;
    options.async_offload = async;
    const TrainRunResult reference = RunTraining(options);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    // A lossy-but-alive disk: whatever the seeded schedule throws, the run
    // either absorbs it through retries or finishes on the RAM fallback —
    // and the curve is bit-identical either way.
    FaultInjector::Global().Seed(20260807);
    ASSERT_TRUE(
        FaultInjector::Global()
            .ArmFromSpec("disk.page_write:p=0.2;disk.page_read:p=0.1")
            .ok());
    const TrainRunResult faulted = RunTraining(options);
    FaultInjector::Global().Reset();

    ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
    ExpectLossesIdentical(faulted.losses, reference.losses);
  }
}

}  // namespace
}  // namespace memo::train
