#include "core/memo_executor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/job_profiler.h"
#include "model/activation_spec.h"
#include "obs/trace_recorder.h"
#include "parallel/memory_model.h"
#include "parallel/pipeline.h"
#include "planner/bilevel_planner.h"
#include "sim/engine.h"

namespace memo::core {

namespace {

/// Mirrors the engine's timeline into the process-wide obs::TraceRecorder
/// as 'X' complete events on synthetic lanes (tid 1000 + stream index,
/// named "sim:<stream>"), so the simulated schedule appears alongside the
/// real wall-clock spans in one trace. No-op while the recorder is
/// disabled. Sim time is its own clock: events carry the simulated
/// timestamps, not wall-clock ones.
void MirrorTimelineToRecorder(const sim::SimEngine& engine) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (!recorder.enabled()) return;
  for (int s = 0; s < engine.num_streams(); ++s) {
    recorder.NameSyntheticLane(1000 + s, "sim:" + engine.stream_name(s));
  }
  for (const sim::OpRecord& op : engine.timeline()) {
    recorder.Complete(op.label, "sim", 1000 + op.stream, op.start_s * 1e6,
                      (op.end_s - op.start_s) * 1e6, "stall_us",
                      static_cast<std::int64_t>(op.stall_s * 1e6));
  }
}

}  // namespace

StatusOr<IterationResult> RunMemoIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy) {
  MEMO_TRACE_SCOPE("memo_iteration", "executor");
  MEMO_ASSIGN_OR_RETURN(const JobProfile profile,
                        ProfileJob(request, strategy));
  const hw::ClusterSpec& cluster = request.cluster;
  const IterationTimings& t = profile.timings;
  const int layers = t.layers_per_stage;
  const int swapped_layers = model::SwappedLayers(layers);
  const model::SkeletalLayout& skeletal = t.skeletal;
  const double pcie_bps = profile.alpha_inputs.ram.pcie_bytes_per_second;
  const double disk_bps = profile.alpha_inputs.disk_bytes_per_second;
  const double layer_fwd_total =
      profile.alpha_inputs.ram.layer_forward_seconds;
  const double alpha = profile.alpha.alpha;
  const std::int64_t offload_bytes_per_layer =
      profile.offload_bytes_per_layer;

  // ---- Greedy RAM-first tier split of the per-layer offload bytes (the LP
  // prefers RAM at equal totals, so this matches its optimal split).
  const double ram_budget_per_layer =
      swapped_layers > 0
          ? static_cast<double>(cluster.host_bytes_per_gpu()) / swapped_layers
          : static_cast<double>(cluster.host_bytes_per_gpu());
  const std::int64_t ram_bytes_per_layer = static_cast<std::int64_t>(
      std::min(static_cast<double>(offload_bytes_per_layer),
               ram_budget_per_layer));
  const std::int64_t disk_bytes_per_layer =
      offload_bytes_per_layer - ram_bytes_per_layer;
  const TieredAlphaResult split =
      SplitAlphaRamFirst(profile.alpha_inputs, alpha);

  // ---- Memory plan for transient tensors.
  MEMO_ASSIGN_OR_RETURN(planner::MemoryPlan plan,
                        planner::PlanMemory(profile.trace));

  // ---- Device memory feasibility.
  const parallel::ModelStateBytes model_state =
      parallel::ComputeModelStateBytes(request.model, strategy);
  // Rounding buffers (§4.1): with alpha > 0 both buffers hold the full
  // skeletal set; with alpha == 0 the "others" region is not double-buffered
  // (it is never offloaded, so one shared buffer suffices).
  const std::int64_t buffers =
      alpha > 0.0
          ? 2 * skeletal.total_bytes()
          : 2 * (skeletal.input_bytes + skeletal.attn_out_bytes) +
                skeletal.others_bytes;
  const std::int64_t device_total = model_state.total() + buffers +
                                    plan.arena_bytes + kDeviceReserveBytes;
  if (device_total > cluster.node.gpu.memory_bytes) {
    return OutOfMemoryError(StrFormat(
        "needs %s (states %s + buffers %s + arena %s + reserve) of %s",
        FormatBytes(device_total).c_str(),
        FormatBytes(model_state.total()).c_str(),
        FormatBytes(buffers).c_str(), FormatBytes(plan.arena_bytes).c_str(),
        FormatBytes(cluster.node.gpu.memory_bytes).c_str()));
  }

  // ---- Host memory accounting (ProfileJob enforced it: the LP when
  // solving, the tier capacity check for a forced alpha).
  const std::int64_t host_bytes =
      static_cast<std::int64_t>(swapped_layers) * offload_bytes_per_layer;
  const std::int64_t host_ram_bytes =
      static_cast<std::int64_t>(swapped_layers) * ram_bytes_per_layer;
  const std::int64_t host_disk_bytes = host_bytes - host_ram_bytes;

  // ---- Schedule one iteration: model::SwapSchedule's ops on the three
  // streams of Fig. 11, plus an NVMe-analog spill stream when the disk tier
  // takes part of each layer.
  sim::SimEngine engine;
  const sim::StreamId compute = engine.CreateStream("compute");
  const sim::StreamId d2h = engine.CreateStream("offload");
  const sim::StreamId h2d = engine.CreateStream("prefetch");
  const bool spills = disk_bytes_per_layer > 0;
  const sim::StreamId spill =
      spills ? engine.CreateStream("spill") : compute;
  const double offload_seconds =
      static_cast<double>(offload_bytes_per_layer) / pcie_bps;
  const double spill_seconds =
      spills ? static_cast<double>(disk_bytes_per_layer) / disk_bps : 0.0;
  const double cp_bwd_exposed = t.layer.cp_bwd_exposed;
  const double recompute_per_layer =
      (1.0 - alpha) * t.layer.recompute_nonattn;
  const double layer_bwd_total = t.layer.bwd_compute + t.layer.bwd_comm +
                                 cp_bwd_exposed + recompute_per_layer;

  const std::vector<model::SwapOp> schedule =
      model::SwapSchedule(layers, spills);
  std::vector<sim::EventId> done;  // one per schedule op
  engine.EnqueueOp(compute, t.embedding, "embedding_fwd");
  for (const model::SwapOp& op : schedule) {
    sim::StreamId stream = compute;
    double seconds = 0.0;
    switch (op.kind) {
      case model::SwapOpKind::kFwd:
        seconds = layer_fwd_total;
        break;
      case model::SwapOpKind::kBwd:
        if (op.layer == layers - 1) {  // the forward -> backward turn
          engine.EnqueueOp(compute, t.classifier_fwd, "classifier_fwd");
          engine.EnqueueOp(compute, t.classifier_bwd, "classifier_bwd");
        }
        seconds = layer_bwd_total;
        break;
      case model::SwapOpKind::kOffload:
        stream = d2h;
        seconds = offload_seconds;
        break;
      case model::SwapOpKind::kPrefetch:
        stream = h2d;
        seconds = offload_seconds;
        break;
      case model::SwapOpKind::kSpillWrite:
      case model::SwapOpKind::kSpillRead:
        stream = spill;
        seconds = spill_seconds;
        break;
    }
    for (const int wait : op.waits) engine.WaitEvent(stream, done[wait]);
    engine.EnqueueOp(stream, seconds, model::SwapOpName(op.kind));
    done.push_back(engine.CreateEvent(model::SwapOpName(op.kind)));
    engine.RecordEvent(stream, done.back());
  }
  engine.EnqueueOp(compute, t.embedding, "embedding_bwd");
  engine.EnqueueOp(compute, t.grad_sync, "grad_sync");

  MirrorTimelineToRecorder(engine);

  if (strategy.virtual_pipeline > 1 &&
      kPipelineMicrobatches % strategy.pp != 0) {
    return InvalidArgumentError(
        "interleaved 1F1B needs microbatches divisible by pp");
  }
  double iteration = engine.Makespan();
  if (strategy.pp > 1) {
    // Scale this stage's overlapped schedule by the exact 1F1B pipeline
    // factor (makespan over one stage's serial layer time).
    parallel::PipelineSchedule ps;
    ps.stages = strategy.pp;
    ps.microbatches = kPipelineMicrobatches;
    ps.fwd_seconds = layers * layer_fwd_total / kPipelineMicrobatches;
    ps.bwd_seconds = layers * layer_bwd_total / kPipelineMicrobatches;
    ps.p2p_seconds = t.p2p_chunk_seconds;
    const double serial = layers * (layer_fwd_total + layer_bwd_total);
    const double pipelined =
        strategy.virtual_pipeline > 1
            ? parallel::SimulateInterleaved1F1B(ps, strategy.virtual_pipeline)
                  .makespan_seconds
            : parallel::Simulate1F1B(ps).makespan_seconds;
    const double factor = pipelined / serial;
    iteration *= factor;
  }
  iteration *= 1.0 + request.calibration.iteration_fixed_overhead_fraction;

  // ---- Result assembly.
  IterationResult result;
  result.strategy = strategy;
  result.alpha = alpha;
  result.iteration_seconds = iteration;
  result.metrics = cost::ComputeMetrics(
      request.model, request.seq, /*num_samples=*/strategy.dp,
      cluster.total_gpus(), cluster.node.gpu.peak_flops, iteration);
  result.compute_seconds =
      layers * (t.layer.fwd_compute + t.layer.bwd_compute) +
      t.classifier_fwd + t.classifier_bwd;
  result.recompute_seconds = layers * recompute_per_layer;
  result.exposed_comm_seconds =
      layers * (t.layer.fwd_comm + t.layer.bwd_comm +
                t.layer.cp_fwd_exposed + cp_bwd_exposed) +
      t.grad_sync;
  result.swap_stall_seconds = engine.StallSeconds(compute);
  result.copy_busy_seconds = engine.BusySeconds(d2h) + engine.BusySeconds(h2d);
  result.overlap_efficiency =
      result.copy_busy_seconds > 0.0
          ? std::clamp(1.0 - result.swap_stall_seconds /
                                 result.copy_busy_seconds,
                       0.0, 1.0)
          : 1.0;
  result.copy_idle_seconds =
      std::max(0.0, engine.Makespan() - result.copy_busy_seconds);
  result.reorg_stall_seconds = 0.0;  // static plan: no reorganizations
  result.reorg_events = 0;
  result.model_state_bytes = model_state.total();
  result.activation_peak_bytes = plan.arena_bytes;
  result.buffer_bytes = buffers;
  result.peak_device_bytes = device_total;
  result.host_offload_bytes = host_bytes;
  result.host_ram_bytes = host_ram_bytes;
  result.host_disk_bytes = host_disk_bytes;
  result.disk_busy_seconds = spills ? engine.BusySeconds(spill) : 0.0;
  result.alpha_ram = split.alpha_ram;
  result.alpha_disk = split.alpha_disk;
  return result;
}

}  // namespace memo::core
