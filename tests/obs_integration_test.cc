// Integration tests of the obs layer against the real training stack: the
// copier thread's trace spans must genuinely overlap compute spans (the
// observable form of the paper's compute/transfer overlap), the metrics
// counters must agree with the backends' own TierStats accounting, tracing
// must not perturb the numerics, and an injected disk fault must surface as
// a clean Status plus a trace instant — never a crash. The simulator's
// schedule leaves the process the same way: the MEMO executor mirrors its
// streams onto the recorder's sim:<stream> lanes.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/units.h"
#include "core/memo_executor.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "offload/disk_backend.h"
#include "plan_request_testing.h"
#include "train/activation_store.h"
#include "train/trainer.h"

namespace memo::train {
namespace {

/// A model small enough for fast tests but with enough layers that the
/// copier sees several offload + prefetch jobs per iteration.
TrainRunOptions SmallTokenWiseRun() {
  TrainRunOptions options;
  options.model.layers = 4;
  options.model.hidden = 16;
  options.model.ffn = 32;
  options.model.seq = 24;
  options.model.vocab = 17;
  options.policy = ActivationPolicy::kTokenWise;
  options.alpha = 0.5;
  options.iterations = 3;
  return options;
}

/// Reconstructed span: [begin_us, end_us] of one B/E pair on one thread.
struct Span {
  int tid = 0;
  std::string name;
  std::string category;
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// Rebuilds intervals from the recorder's B/E events (per-thread stacks;
/// nesting is guaranteed by the RAII scopes).
std::vector<Span> ReconstructSpans() {
  std::vector<Span> spans;
  std::map<int, std::vector<Span>> stacks;
  for (const obs::TaggedTraceEvent& tagged : obs::TraceRecorder::Global().Snapshot()) {
    const obs::TraceEvent& e = tagged.event;
    if (e.phase == 'B') {
      Span s;
      s.tid = tagged.tid;
      s.name = e.effective_name();
      s.category = e.category;
      s.begin_us = e.ts_us;
      stacks[tagged.tid].push_back(std::move(s));
    } else if (e.phase == 'E') {
      auto& stack = stacks[tagged.tid];
      if (stack.empty()) continue;  // span begun before the test enabled us
      Span s = std::move(stack.back());
      stack.pop_back();
      s.end_us = e.ts_us;
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

bool Overlaps(const Span& a, const Span& b) {
  return a.begin_us < b.end_us && b.begin_us < a.end_us;
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Global().Clear();
    obs::MetricsRegistry::Global().Reset();
  }
  void TearDown() override {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }
};

#ifndef MEMO_OBS_DISABLE_TRACING

TEST_F(ObsIntegrationTest, CopierSpansOverlapComputeSpans) {
  obs::TraceRecorder::Global().Enable();
  TrainRunOptions options = SmallTokenWiseRun();
  options.async_offload = true;
  const TrainRunResult result = RunTraining(options);
  obs::TraceRecorder::Global().Disable();
  ASSERT_GT(result.offload_stats.copier_busy_seconds, 0.0);

  const std::vector<Span> spans = ReconstructSpans();
  std::vector<Span> copier_spans;   // the copier thread's copy work
  std::vector<Span> compute_spans;  // "train"-category spans (compute thread)
  for (const Span& s : spans) {
    if (s.name == "offload" || s.name == "prefetch") {
      copier_spans.push_back(s);
    } else if (s.category == "train") {
      compute_spans.push_back(s);
    }
  }
  ASSERT_FALSE(copier_spans.empty()) << "no copier spans recorded";
  ASSERT_FALSE(compute_spans.empty()) << "no compute spans recorded";

  // The copier must be a distinct trace lane from every compute span.
  for (const Span& c : copier_spans) {
    for (const Span& t : compute_spans) {
      EXPECT_NE(c.tid, t.tid)
          << "copier span '" << c.name << "' on the compute thread";
    }
  }

  // The point of the async path: copier copies run WHILE compute runs. At
  // least one copy span must overlap a compute-side span in wall time.
  int overlapping = 0;
  for (const Span& c : copier_spans) {
    for (const Span& t : compute_spans) {
      if (Overlaps(c, t)) {
        ++overlapping;
        break;
      }
    }
  }
  EXPECT_GT(overlapping, 0)
      << "no copier span overlapped any compute span — offload not async?";
}

TEST_F(ObsIntegrationTest, MetricCountersMatchTierStats) {
  TrainRunOptions options = SmallTokenWiseRun();
  options.async_offload = true;
  options.backend.kind = offload::BackendKind::kTiered;
  // A RAM tier far smaller than one layer's skeletal bytes: every layer
  // spills, so the disk-tier counters see real traffic.
  options.backend.ram_capacity_bytes = 2 * kKiB;
  options.backend.disk.page_bytes = 1 * kKiB;
  const TrainRunResult result = RunTraining(options);

  const offload::TierStats& ram = result.offload_stats.ram_tier;
  const offload::TierStats& disk = result.offload_stats.disk_tier;
  ASSERT_GT(disk.put_bytes, 0) << "tiered run never spilled to disk";

  // The process-global metric counters were Reset() in SetUp and this run
  // is the only backend traffic since, so they must agree byte-for-byte
  // with the backends' own TierStats.
  obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
  EXPECT_EQ(m.counter("ram.put_bytes")->value(), ram.put_bytes);
  EXPECT_EQ(m.counter("ram.take_bytes")->value(), ram.take_bytes);
  EXPECT_EQ(m.counter("disk.put_bytes")->value(), disk.put_bytes);
  EXPECT_EQ(m.counter("disk.take_bytes")->value(), disk.take_bytes);

  // Every stashed byte went through exactly one tier.
  EXPECT_EQ(m.counter("offload.stash_bytes")->value(),
            ram.put_bytes + disk.put_bytes);
}

TEST_F(ObsIntegrationTest, TracingDoesNotPerturbTheLossCurve) {
  const TrainRunOptions options = SmallTokenWiseRun();

  obs::TraceRecorder::Global().Disable();
  const TrainRunResult off = RunTraining(options);

  obs::TraceRecorder::Global().Enable();
  const TrainRunResult on = RunTraining(options);
  obs::TraceRecorder::Global().Disable();

  ASSERT_GT(obs::TraceRecorder::Global().event_count(), 0);
  ASSERT_EQ(off.losses.size(), on.losses.size());
  for (std::size_t i = 0; i < off.losses.size(); ++i) {
    EXPECT_EQ(off.losses[i], on.losses[i]) << "iteration " << i;
  }
}

TEST_F(ObsIntegrationTest, MemoExecutorMirrorsItsScheduleOntoSimLanes) {
  parallel::ParallelStrategy strategy;
  strategy.tp = 4;
  strategy.cp = 2;
  obs::TraceRecorder::Global().Enable();
  const auto run = core::RunMemoIteration(
      testplan::Request(model::Gpt7B(), 256 * kSeqK, hw::PaperCluster(8)),
      strategy);
  obs::TraceRecorder::Global().Disable();
  ASSERT_TRUE(run.ok()) << run.status();

  std::map<int, std::string> lanes;
  for (const auto& [lane, name] :
       obs::TraceRecorder::Global().synthetic_lanes()) {
    lanes[lane] = name;
  }
  std::map<std::string, std::map<std::string, int>> ops_per_lane;
  for (const obs::TaggedTraceEvent& tagged :
       obs::TraceRecorder::Global().Snapshot()) {
    const obs::TraceEvent& e = tagged.event;
    if (e.phase != 'X' || std::string(e.category) != "sim") continue;
    ASSERT_EQ(lanes.count(e.tid_override), 1u) << e.effective_name();
    ASSERT_NE(e.arg_name, nullptr) << e.effective_name();
    EXPECT_STREQ(e.arg_name, "stall_us");
    ++ops_per_lane[lanes[e.tid_override]][e.effective_name()];
  }
  EXPECT_GT(ops_per_lane["sim:compute"]["layer_fwd"], 0);
  EXPECT_GT(ops_per_lane["sim:compute"]["layer_bwd"], 0);
  EXPECT_GT(ops_per_lane["sim:offload"]["offload"], 0);
  EXPECT_GT(ops_per_lane["sim:prefetch"]["prefetch"], 0);
}

#endif  // !MEMO_OBS_DISABLE_TRACING

/// Activations with the shapes MiniGpt produces for one layer: seq rows,
/// hidden/ffn columns, per-row statistics as [s, 1], two heads'
/// log-sum-exp as [s, 2].
LayerActivations MakeActs(std::int64_t s, std::int64_t h, std::int64_t ffn) {
  LayerActivations a;
  Rng rng(7);
  a.input = Tensor::Randn(s, h, 1.0, rng);
  a.ln1_out = Tensor::Randn(s, h, 1.0, rng);
  a.ln1_rstd = Tensor::Randn(s, 1, 1.0, rng);
  a.q = Tensor::Randn(s, h, 1.0, rng);
  a.k = Tensor::Randn(s, h, 1.0, rng);
  a.v = Tensor::Randn(s, h, 1.0, rng);
  a.attn_out = Tensor::Randn(s, h, 1.0, rng);
  a.attn_lse = Tensor::Randn(s, 2, 1.0, rng);
  a.proj_out = Tensor::Randn(s, h, 1.0, rng);
  a.ln2_out = Tensor::Randn(s, h, 1.0, rng);
  a.ln2_rstd = Tensor::Randn(s, 1, 1.0, rng);
  a.fc1_out = Tensor::Randn(s, ffn, 1.0, rng);
  a.gelu_out = Tensor::Randn(s, ffn, 1.0, rng);
  return a;
}

offload::BackendOptions DiskBackendOptionsForTest() {
  offload::BackendOptions backend;
  backend.kind = offload::BackendKind::kDisk;
  backend.disk.page_bytes = 256;
  return backend;
}

TEST_F(ObsIntegrationTest, InjectedWriteFaultSurfacesThroughStash) {
  FaultInjector::Global().Reset();
  ActivationStore store(ActivationPolicy::kTokenWise, /*alpha=*/1.0,
                        /*layers=*/4, /*async_offload=*/false,
                        DiskBackendOptionsForTest());
  // Permanent: outlasts both the per-page and the whole-blob retries.
  FaultRule rule;
  rule.nth = 1;
  rule.permanent = true;
  FaultInjector::Global().Arm("disk.page_write", rule);
  const Status st = store.Stash(0, MakeActs(4, 8, 16));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.ToString().find("injected"), std::string::npos)
      << st.ToString();
  // The store's sticky backend_error_ now reports the fault on every call.
  FaultInjector::Global().Reset();
  EXPECT_FALSE(store.Stash(1, MakeActs(4, 8, 16)).ok());
}

TEST_F(ObsIntegrationTest, InjectedReadFaultSurfacesThroughRestore) {
#ifndef MEMO_OBS_DISABLE_TRACING
  obs::TraceRecorder::Global().Enable();
#endif
  Status restore_status;
  {
    ActivationStore store(ActivationPolicy::kTokenWise, /*alpha=*/1.0,
                          /*layers=*/4, /*async_offload=*/false,
                          DiskBackendOptionsForTest());
    ASSERT_TRUE(store.Stash(0, MakeActs(4, 8, 16)).ok());
    FaultRule rule;
    rule.nth = 1;
    rule.permanent = true;
    FaultInjector::Global().Arm("disk.page_read", rule);
    const StatusOr<LayerActivations> acts = store.Restore(0, LayerParams{});
    FaultInjector::Global().Reset();
    ASSERT_FALSE(acts.ok());
    restore_status = acts.status();
    // The store must stay destructible after the fault (spill-file cleanup
    // happens in the backend's destructor as this scope closes).
  }
  EXPECT_EQ(restore_status.code(), StatusCode::kInternal);
  EXPECT_NE(restore_status.ToString().find("injected"), std::string::npos)
      << restore_status.ToString();

#ifndef MEMO_OBS_DISABLE_TRACING
  // The fault left its mark in the trace: the disk layer's I/O-error
  // instant and the store's restore_error instant.
  obs::TraceRecorder::Global().Disable();
  bool disk_instant = false;
  bool restore_instant = false;
  for (const obs::TaggedTraceEvent& tagged :
       obs::TraceRecorder::Global().Snapshot()) {
    if (tagged.event.phase != 'i') continue;
    const std::string name = tagged.event.effective_name();
    if (name == "disk_io_error") disk_instant = true;
    if (name == "restore_error") restore_instant = true;
  }
  EXPECT_TRUE(disk_instant);
  EXPECT_TRUE(restore_instant);
#endif
}

}  // namespace
}  // namespace memo::train
