// The two real-trainer workloads.
//
//   train_longctx  4 layers, hidden 128, 8 heads, ffn 512, seq 1024;
//                  token-wise at alpha 0.5, async copier, unlimited RAM
//                  stash. Attention's quadratic FLOPs dominate, so the ops
//                  and the thread pool do the work.
//   train_spill    8 layers, hidden 64, 4 heads, ffn 256, seq 256;
//                  token-wise at alpha 0.75, async copier, tiered stash with
//                  a 1 MiB RAM tier and a disk tier throttled to 0.25 GB/s.
//                  The activation store acts as a transfer pipe: the copier,
//                  the disk tier, paging and checksums do the work.
//
// Every figure comes from real train::RunTraining calls. The end-to-end run
// alternates one-iteration set-up calls with measured calls, times whole
// calls for throughput and reads the step latencies off the "iteration"
// spans RunTraining records into obs::TraceRecorder, which is switched on
// around each measured call. The traced run reads the per-layer figures off
// the spans of one traced call (forward, classifier, backward, optim_step,
// stash, restore) and, since the ops record no spans, times each op of a
// step at the workload's shapes with the benchmark's own clock. The traced
// run of train_spill also measures the planning service (plan_service.cc).

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/trace_recorder.h"
#include "train/ops.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

namespace train = memo::train;
namespace offload = memo::offload;
using train::Tensor;

constexpr double kMiBf = 1024.0 * 1024.0;

struct TrainSpec {
  /// Everything but `iterations`, which each phase sets.
  train::TrainRunOptions options;
  int iterations_per_call = 8;
  /// Iterations the retain-all reference run trains for the loss check.
  int check_prefix = 2;
  /// Repetitions per call site in the traced per-op table.
  int op_reps = 5;
};

TrainSpec MakeSpec(const RunOptions& run) {
  TrainSpec spec;
  train::TrainRunOptions& o = spec.options;
  o.policy = train::ActivationPolicy::kTokenWise;
  o.async_offload = true;
  o.use_arena = true;
  o.seed = run.seed;
  if (run.workload == "train_longctx") {
    o.model = {.layers = 4, .hidden = 128, .heads = 8, .ffn = 512,
               .vocab = 64, .seq = 1024};
    o.alpha = 0.5;
    o.backend.kind = offload::BackendKind::kRam;
    o.backend.ram_capacity_bytes = 0;
    spec.iterations_per_call = 8;
  } else {
    o.model = {.layers = 8, .hidden = 64, .heads = 4, .ffn = 256,
               .vocab = 64, .seq = 256};
    o.alpha = 0.75;
    o.backend.kind = offload::BackendKind::kTiered;
    o.backend.ram_capacity_bytes = 1 << 20;
    o.backend.disk.bytes_per_second = 0.25e9;
    o.backend.disk.directory = run.work_dir;
    spec.iterations_per_call = 16;
  }
  if (run.smoke) {
    o.model.layers = 2;
    o.model.seq = 64;
    o.model.hidden = 32;
    o.model.heads = 4;
    o.model.ffn = 128;
    spec.iterations_per_call = 3;
    spec.op_reps = 1;
  }
  return spec;
}

train::TrainRunResult Train(const TrainSpec& spec, int iterations) {
  train::TrainRunOptions options = spec.options;
  options.iterations = iterations;
  return train::RunTraining(options);
}

/// One RunTraining call with the program's trace recorder on, and the spans
/// it recorded.
struct TracedCall {
  train::TrainRunResult run;
  double wall_s = 0.0;
  std::vector<ProgramSpan> spans;
};

TracedCall TrainTraced(const TrainSpec& spec, int iterations) {
  memo::obs::TraceRecorder& recorder = memo::obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  TracedCall call;
  const auto start = Clock::now();
  call.run = Train(spec, iterations);
  call.wall_s = SecondsSince(start);
  recorder.Disable();
  call.spans = ProgramSpans();
  return call;
}

/// The "iteration" spans of every step but a call's first, which measures
/// the arena and solves its plan (set-up covers that step).
std::vector<ProgramSpan> SteadySteps(const std::vector<ProgramSpan>& spans) {
  std::vector<ProgramSpan> steps;
  for (const ProgramSpan& span : spans) {
    if (span.name == "iteration" && span.arg >= 1) steps.push_back(span);
  }
  return steps;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b,
              std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0;
}

/// Checks one measured RunTraining call: it finished every iteration on its
/// configured backend, its steady-state steps never left the arena plan, and
/// its losses equal the reference series bit for bit.
void CheckCall(const train::TrainRunResult& run, int iterations,
               const std::vector<double>& reference, std::size_t compare,
               const std::string& label, RunResult* result) {
  result->attempted += iterations;
  if (!run.status.ok() || run.degraded ||
      static_cast<int>(run.losses.size()) != iterations) {
    result->failed += iterations;
    result->correct = false;
    std::fprintf(stderr, "perfbench: %s did not finish cleanly: %s%s\n",
                 label.c_str(), run.status.ToString().c_str(),
                 run.degraded ? " (degraded)" : "");
    return;
  }
  if (run.arena_heap_fallback_allocs != 0) {
    result->Mismatch(label + ": arena heap fallbacks " +
                     std::to_string(run.arena_heap_fallback_allocs));
  }
  if (!SameBits(run.losses, reference, compare)) {
    result->Mismatch(label + ": losses differ from the reference run");
  }
}

// ------------------------------------------------------------- end-to-end

void RunUntraced(const RunOptions& run, const TrainSpec& spec,
                 RunResult* result) {
  const int k = spec.iterations_per_call;
  const double tokens_per_call =
      static_cast<double>(k) * spec.options.model.seq * spec.options.batch;

  // Set-up is a one-iteration run of the same config: model init, the
  // arena's measuring step and its DSA solve. Set-up and measured calls
  // alternate, so the medians of both sample the whole run.
  std::vector<double> setup_s;
  std::vector<train::TrainRunResult> setup_runs;
  // Throughput per whole call; latency per steady step, from the spans.
  std::vector<double> tokens_per_s;
  std::vector<double> step_ms;
  std::vector<train::TrainRunResult> calls;
  const auto measure_start = Clock::now();
  while (calls.empty() || SecondsSince(measure_start) < run.seconds) {
    const auto setup_start = Clock::now();
    setup_runs.push_back(Train(spec, 1));
    setup_s.push_back(SecondsSince(setup_start));
    TracedCall call = TrainTraced(spec, k);
    tokens_per_s.push_back(tokens_per_call / call.wall_s);
    for (const ProgramSpan& step : SteadySteps(call.spans)) {
      step_ms.push_back(step.ms());
    }
    calls.push_back(std::move(call.run));
  }
  memo::obs::TraceRecorder::Global().Clear();
  const double peak_rss = PeakRssMib();
  if (step_ms.empty()) {
    result->Mismatch("RunTraining recorded no iteration spans");
  }

  // Output checks, outside the timed region: every call against the same
  // seed's retain-all RAM run (a prefix), and against the first call in full.
  train::TrainRunOptions reference_options = spec.options;
  reference_options.policy = train::ActivationPolicy::kRetainAll;
  reference_options.async_offload = false;
  reference_options.backend = offload::BackendOptions{};
  reference_options.iterations = spec.check_prefix;
  const train::TrainRunResult reference = train::RunTraining(reference_options);
  if (!reference.status.ok() ||
      static_cast<int>(reference.losses.size()) != spec.check_prefix) {
    result->Mismatch("retain-all reference run failed: " +
                     reference.status.ToString());
  }
  for (std::size_t i = 0; i < setup_runs.size(); ++i) {
    CheckCall(setup_runs[i], 1, reference.losses, 1,
              "setup run " + std::to_string(i), result);
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::string label = "call " + std::to_string(i);
    CheckCall(calls[i], k, reference.losses, spec.check_prefix, label,
              result);
    if (!SameBits(calls[i].losses, calls[0].losses, k)) {
      result->Mismatch(label + ": losses differ from call 0");
    }
  }

  result->Add("train_tokens_per_s", Median(tokens_per_s), "1/s");
  result->Add("step_p50_ms", Median(step_ms), "ms");
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("peak_rss_mib", peak_rss, "MiB");
  result->Note("samples",
               std::to_string(step_ms.size()) + " steady steps from " +
                   std::to_string(calls.size()) + " RunTraining calls of " +
                   std::to_string(k) + " iterations, " +
                   std::to_string(setup_s.size()) + " set-up calls");
  // The step tail is reported, not gated: it depends on what else the host
  // runs. Its percentile is the highest with ten steps beyond it.
  const double tail_q =
      std::max(0.5, 1.0 - 10.0 / std::max<std::size_t>(1, step_ms.size()));
  char tail[96];
  std::snprintf(tail, sizeof(tail), "p%.1f %.3f ms", 100.0 * tail_q,
                Percentile(step_ms, tail_q));
  result->Note("step_tail", tail);
  result->Note("stash_peak_mib",
               std::to_string(calls[0].peak_stored_bytes / kMiBf));
  result->Note("arena_peak_mib",
               std::to_string(calls[0].arena_planned_peak_bytes / kMiBf));
}

// ------------------------------------------------------------------ traced

/// The planning service has no workload of its own; train_spill's traced run
/// measures it, in a third of the run's seconds.
bool HasPlanService(const RunOptions& run) {
  return run.workload == "train_spill";
}
double PlanPassSeconds(const RunOptions& run) { return run.seconds / 3.0; }

/// One timed call site of the per-op table: `calls` invocations per
/// training step of `fn`.
struct OpSite {
  std::string op;
  int calls = 0;
  std::function<void()> fn;
};

/// The op calls of one MiniGpt::TryForwardBackward step, in the order
/// train/mini_gpt.cc makes them: LayerForward per layer, the classifier
/// block, its backward, then LayerBackward per layer. Each site runs on the
/// parameter tensor the model uses there, so shapes follow the model config.
/// The list itself is a copy of that call sequence: when the model's
/// parameter layout changes (say, a fused QKV weight), `structure_matches`
/// turns false and the table is reported stale instead of silently timing
/// the old structure.
class OpTable {
 public:
  OpTable(const train::MiniGptConfig& c, std::uint64_t seed)
      : seq_(c.seq), rng_(seed), params_(train::MiniGptParams::Init(c, seed)) {
    // MiniGptParams::Flat: 12 tensors per layer (ln1 g/b, wq, wk, wv, wo,
    // ln2 g/b, w1, b1, w2, b2) plus embedding, final LayerNorm and w_cls.
    structure_matches =
        params_.Flat().size() == static_cast<std::size_t>(12 * c.layers + 4);
    const int n = c.layers;
    const train::LayerParams& l = params_.layers[0];
    const Tensor& none = none_;

    // LayerForward.
    LayerNormFwd(l.ln1_g, l.ln1_b, n);
    for (const Tensor* w : {&l.wq, &l.wk, &l.wv}) LinearFwd(*w, none, n);
    const Tensor &q = In(c.seq, c.hidden), &k = In(c.seq, c.hidden),
                 &v = In(c.seq, c.hidden);
    Tensor& attn = In(c.seq, c.hidden);
    Add("attention_fwd", n, [&q, &k, &v, &attn, heads = c.heads] {
      AttentionForward(q, k, v, heads, &attn);
    });
    LinearFwd(l.wo, none, n);
    {
      const Tensor& x = In(c.seq, l.w1.rows());
      Tensor &ln = In(c.seq, l.w1.rows()), &rstd = In(c.seq, 1),
             &fc = In(c.seq, l.w1.cols()), &gelu = In(c.seq, l.w1.cols());
      Add("ln_linear_gelu_fwd", n, [&, &g = l.ln2_g, &b = l.ln2_b,
                                    &w = l.w1, &bfc = l.b1] {
        LayerNormLinearGeluForwardRows(x, g, b, w, bfc, 0, x.rows(), &ln,
                                       &rstd, &fc, &gelu);
      });
    }
    LinearFwd(l.w2, l.b2, n);

    // Classifier block.
    LayerNormFwd(params_.lnf_g, params_.lnf_b, 1);
    LinearFwd(params_.w_cls, none, 1);
    {
      const Tensor& logits = In(c.seq, params_.w_cls.cols());
      Tensor& d_logits = In(c.seq, params_.w_cls.cols());
      targets_.resize(c.seq);
      for (int& t : targets_) t = static_cast<int>(rng_.NextBounded(c.vocab));
      Add("cross_entropy", 1, [&logits, &d_logits, this] {
        CrossEntropy(logits, targets_, &d_logits);
      });
    }

    // Backward of the classifier block.
    LinearBwd(params_.w_cls, none, 1);
    LayerNormBwd(params_.lnf_g, params_.lnf_b, 1);

    // LayerBackward.
    LinearBwd(l.w2, l.b2, n);
    {
      const Tensor &x = In(c.seq, l.w1.cols()), &dy = In(c.seq, l.w1.cols());
      Tensor& dx = In(c.seq, l.w1.cols());
      Add("gelu_bwd", n, [&x, &dy, &dx] { GeluBackward(x, dy, &dx); });
    }
    LinearBwd(l.w1, l.b1, n);
    LayerNormBwd(l.ln2_g, l.ln2_b, n);
    LinearBwd(l.wo, none, n);
    {
      const Tensor& dout = In(c.seq, c.hidden);
      Tensor &dq = In(c.seq, c.hidden), &dk = In(c.seq, c.hidden),
             &dv = In(c.seq, c.hidden);
      Add("attention_bwd", n, [&, heads = c.heads] {
        AttentionBackward(q, k, v, heads, dout, &dq, &dk, &dv);
      });
    }
    for (const Tensor* w : {&l.wq, &l.wk, &l.wv}) LinearBwd(*w, none, n);
    LayerNormBwd(l.ln1_g, l.ln1_b, n);
  }
  OpTable(const OpTable&) = delete;
  OpTable& operator=(const OpTable&) = delete;

  std::vector<OpSite> sites;
  bool structure_matches = false;

 private:
  /// A random activation-shaped buffer; the deque keeps its address stable.
  Tensor& In(std::int64_t rows, std::int64_t cols) {
    return buffers_.emplace_back(Tensor::Randn(rows, cols, 0.5, rng_));
  }
  void Add(const char* op, int calls, std::function<void()> fn) {
    sites.push_back({op, calls, std::move(fn)});
  }
  void LinearFwd(const Tensor& w, const Tensor& b, int calls) {
    const Tensor& x = In(seq_, w.rows());
    Tensor& y = In(seq_, w.cols());
    Add("linear_fwd", calls, [&x, &w, &b, &y] { LinearForward(x, w, b, &y); });
  }
  void LinearBwd(const Tensor& w, const Tensor& b, int calls) {
    const Tensor &x = In(seq_, w.rows()), &dy = In(seq_, w.cols());
    Tensor &dx = In(seq_, w.rows()), &dw = In(w.rows(), w.cols());
    Tensor* db = b.size() > 0 ? &In(1, b.cols()) : nullptr;
    Add("linear_bwd", calls, [&x, &w, &dy, &dx, &dw, db] {
      LinearBackward(x, w, dy, &dx, &dw, db);
    });
  }
  void LayerNormFwd(const Tensor& g, const Tensor& b, int calls) {
    const Tensor& x = In(seq_, g.cols());
    Tensor &y = In(seq_, g.cols()), &rstd = In(seq_, 1);
    Add("layernorm_fwd", calls,
        [&x, &g, &b, &y, &rstd] { LayerNormForward(x, g, b, &y, &rstd); });
  }
  void LayerNormBwd(const Tensor& g, const Tensor& b, int calls) {
    const Tensor &x = In(seq_, g.cols()), &dy = In(seq_, g.cols());
    Tensor &rstd = In(seq_, 1), &dx = In(seq_, g.cols()),
           &dg = In(1, g.cols()), &db = In(1, g.cols());
    LayerNormForward(x, g, b, &dx, &rstd);  // a real rstd
    Add("layernorm_bwd", calls, [&x, &g, &rstd, &dy, &dx, &dg, &db] {
      LayerNormBackward(x, g, rstd, dy, &dx, &dg, &db);
    });
  }
  const std::int64_t seq_;
  memo::Rng rng_;
  train::MiniGptParams params_;
  const Tensor none_;
  std::deque<Tensor> buffers_;
  std::vector<int> targets_;
};

/// Per-step milliseconds of each op (sum over its call sites of calls x the
/// median single-call time) at the current pool size.
std::map<std::string, double> TimeOps(OpTable& table, int reps) {
  std::map<std::string, double> ms;
  for (OpSite& site : table.sites) {
    site.fn();  // warm caches and the pool
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      site.fn();
      samples.push_back(SecondsSince(start) * 1000.0);
    }
    ms[site.op] += site.calls * Median(samples);
  }
  return ms;
}

void RunTraced(const RunOptions& run, const TrainSpec& spec,
               RunResult* result) {
  const train::TrainRunOptions& o = spec.options;
  const int k = spec.iterations_per_call;
  const int lanes = memo::ThreadPool::Global().threads();

  // The same call with the recorder off and on: the wall-time gap is the
  // tracing overhead, and tracing must leave the losses bit-identical.
  const auto start = Clock::now();
  const train::TrainRunResult untraced = Train(spec, k);
  const double untraced_wall = SecondsSince(start);
  CheckCall(untraced, k, untraced.losses, k, "untraced call", result);
  const TracedCall traced = TrainTraced(spec, k);
  CheckCall(traced.run, k, untraced.losses, k, "traced call", result);
  const train::TrainRunResult& r = traced.run;

  // Per steady step, from RunTraining's own spans.
  std::vector<double> step_ms, optim_ms, fwd_bwd_ms, stash_ms, restore_ms;
  for (const ProgramSpan& step : SteadySteps(traced.spans)) {
    step_ms.push_back(step.ms());
    optim_ms.push_back(NestedMs(traced.spans, step, "optim_step"));
    fwd_bwd_ms.push_back(NestedMs(traced.spans, step, "forward") +
                         NestedMs(traced.spans, step, "classifier") +
                         NestedMs(traced.spans, step, "backward"));
    stash_ms.push_back(NestedMs(traced.spans, step, "stash"));
    restore_ms.push_back(NestedMs(traced.spans, step, "restore"));
  }
  if (step_ms.empty()) {
    result->Mismatch("RunTraining recorded no iteration spans");
  }
  const double fwd_bwd = Median(fwd_bwd_ms);
  result->Add("train.fwd_bwd_ms", fwd_bwd, "ms");
  result->Add("train.optim_ms", Median(optim_ms), "ms");
  result->Add("train.step_ms", Median(step_ms), "ms");
  result->Add("trace.overhead_pct",
              100.0 * (traced.wall_s / untraced_wall - 1.0), "%");
  WriteProgramTrace(run.work_dir + "/spans-" + run.workload + "-" +
                        std::to_string(run.seed) + ".json",
                    "spans", result);
  memo::obs::TraceRecorder::Global().Clear();

  // Per-op table at the workload's shapes, at the workload's lanes and at 1.
  OpTable table(o.model, o.seed);
  const std::map<std::string, double> ms_n = TimeOps(table, spec.op_reps);
  memo::ThreadPool::SetGlobalThreads(1);
  const std::map<std::string, double> ms_1 = TimeOps(table, spec.op_reps);
  memo::ThreadPool::SetGlobalThreads(lanes);
  std::map<std::string, int> calls;
  for (const OpSite& site : table.sites) calls[site.op] += site.calls;
  double op_sum = 0.0;
  for (const auto& [op, ms] : ms_n) {
    op_sum += ms;
    result->Add("op." + op + ".ms", ms, "ms");
    result->Add("op." + op + ".calls", calls[op], "count");
    result->Add("op." + op + ".share", ms / fwd_bwd, "ratio");
    result->Add("op." + op + ".par_eff", ms_1.at(op) / (lanes * ms), "ratio");
  }
  result->Add("op.sum_ms", op_sum, "ms");
  result->Add("op.unexplained_ms", fwd_bwd - op_sum, "ms");
  result->Add("pool.lanes", lanes, "count");
  if (!table.structure_matches || fwd_bwd < op_sum) {
    const std::string why =
        !table.structure_matches
            ? "the model's parameter layout is not the one the table mirrors"
            : "the timed ops add up to more than the measured fwd_bwd";
    std::fprintf(stderr, "perfbench: per-op table is stale: %s\n",
                 why.c_str());
    result->Note("op_table", "stale: " + why);
  }

  const double steps = static_cast<double>(k);
  const train::OffloadStats& offload = r.offload_stats;
  result->Add("recompute.rows_per_step", r.recomputed_rows / steps, "count");
  result->Add("recompute.restore_ms", Median(restore_ms), "ms");
  result->Add("offload.stash_ms", Median(stash_ms), "ms");
  result->Add("offload.copier_busy_s", offload.copier_busy_seconds / steps,
              "s");
  result->Add("offload.stash_wait_s", offload.stash_wait_seconds / steps, "s");
  result->Add("offload.restore_wait_s", offload.restore_wait_seconds / steps,
              "s");
  result->Add("offload.overlap", offload.overlap_efficiency(), "ratio");
  result->Add("offload.bytes", offload.offloaded_bytes / steps, "B");
  result->Add("offload.disk_bytes", offload.disk_tier.put_bytes / steps, "B");
  result->Add("offload.disk_write_s", offload.disk_tier.write_seconds / steps,
              "s");
  result->Add("offload.disk_read_s", offload.disk_tier.read_seconds / steps,
              "s");
  result->Add("offload.spill_pages", offload.disk_tier.spill_pages / steps,
              "count");
  result->Add("offload.stash_peak_mib", r.peak_stored_bytes / kMiBf, "MiB");
  result->Add("arena.planned_peak_mib", r.arena_planned_peak_bytes / kMiBf,
              "MiB");
  result->Add("arena.heap_fallbacks",
              static_cast<double>(r.arena_heap_fallback_allocs), "count");

  if (HasPlanService(run)) RunPlanService(run, PlanPassSeconds(run), result);
}

}  // namespace

std::string DescribeTrainWorkload(const RunOptions& run) {
  const TrainSpec spec = MakeSpec(run);
  const train::TrainRunOptions& o = spec.options;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"layers\":%d,\"hidden\":%d,"
      "\"heads\":%d,\"ffn\":%d,\"vocab\":%d,\"seq\":%d,\"alpha\":%.17g,"
      "\"async\":%s,\"backend\":%d,\"ram_cap_bytes\":%lld,"
      "\"disk_bytes_per_s\":%.17g,\"iterations_per_call\":%d}",
      run.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.model.layers, o.model.hidden, o.model.heads, o.model.ffn,
      o.model.vocab, o.model.seq, o.alpha, o.async_offload ? "true" : "false",
      static_cast<int>(o.backend.kind),
      static_cast<long long>(o.backend.ram_capacity_bytes),
      o.backend.disk.bytes_per_second, spec.iterations_per_call);
  std::string out = buf;
  if (HasPlanService(run)) {
    out.pop_back();
    out += ",\"plan_fingerprints\":" +
           DescribePlanStream(run.seed, PlanPassSeconds(run)) + "}";
  }
  return out;
}

void RunTrainWorkload(const RunOptions& run, RunResult* result) {
  const TrainSpec spec = MakeSpec(run);
  if (run.trace) {
    RunTraced(run, spec, result);
  } else {
    RunUntraced(run, spec, result);
  }
}

}  // namespace perfbench
