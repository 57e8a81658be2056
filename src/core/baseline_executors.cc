#include "core/baseline_executors.h"

#include <algorithm>

#include "alloc/trace_replay.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/timings.h"
#include "model/trace_gen.h"
#include "parallel/memory_model.h"
#include "parallel/pipeline.h"
#include "planner/bilevel_planner.h"

namespace memo::core {

namespace {

/// Shared baseline iteration logic: both baselines run serial compute with
/// optional full recomputation and caching-allocator memory management; they
/// differ only in strategy shape (validated upstream) and extra static
/// buffers.
StatusOr<IterationResult> RunBaseline(
    parallel::SystemKind system, const PlanRequest& request,
    const parallel::ParallelStrategy& strategy,
    std::int64_t extra_static_bytes) {
  const hw::ClusterSpec& cluster = request.cluster;
  MEMO_RETURN_IF_ERROR(parallel::ValidateStrategy(system, strategy,
                                                  request.model, cluster,
                                                  request.seq));
  const hw::Calibration& cal = request.calibration;
  const IterationTimings t = ComputeIterationTimings(
      system, request.model, strategy, cluster, cal, request.seq);
  const int layers = t.layers_per_stage;

  // ---- Memory: replay the real request trace through the caching
  // allocator with the model state resident.
  const parallel::ModelStateBytes model_state =
      parallel::ComputeModelStateBytes(request.model, strategy);
  model::ModelConfig stage_model = request.model;
  stage_model.num_layers = layers;
  model::TraceGenOptions trace_options;
  trace_options.seq_local = strategy.SeqLocal(request.seq);
  trace_options.tensor_parallel = strategy.tp;
  trace_options.mode = strategy.full_recompute
                           ? model::ActivationMode::kFullRecompute
                           : model::ActivationMode::kRetainAll;
  if (system == parallel::SystemKind::kDeepSpeed) {
    // Megatron-DeepSpeed computes the vocabulary loss unchunked: fp16
    // logits and an fp32 softmax for the whole local sequence at once.
    trace_options.classifier_chunks = 1;
  }
  const model::ModelTrace trace =
      model::GenerateModelTrace(stage_model, trace_options);

  const std::int64_t static_bytes =
      model_state.total() + extra_static_bytes + kDeviceReserveBytes;
  if (static_bytes >= cluster.node.gpu.memory_bytes) {
    return OutOfMemoryError(
        StrFormat("model state alone needs %s of %s",
                  FormatBytes(static_bytes).c_str(),
                  FormatBytes(cluster.node.gpu.memory_bytes).c_str()));
  }

  double reorg_stall = 0.0;
  std::int64_t reorg_events = 0;
  std::int64_t activation_peak = 0;
  if (request.baseline_use_memory_plan) {
    // Table 4 "Full Recomputation + Memory Plan": same execution, memory
    // served by the static bi-level plan — no fragmentation, no reorgs.
    auto plan = planner::PlanMemory(trace);
    if (!plan.ok()) return plan.status();
    activation_peak = plan->arena_bytes;
    if (static_bytes + activation_peak > cluster.node.gpu.memory_bytes) {
      return OutOfMemoryError(
          StrFormat("states %s + planned arena %s exceed %s",
                    FormatBytes(static_bytes).c_str(),
                    FormatBytes(activation_peak).c_str(),
                    FormatBytes(cluster.node.gpu.memory_bytes).c_str()));
    }
  } else {
    alloc::CachingAllocator::Options dev;
    dev.capacity_bytes = cluster.node.gpu.memory_bytes;
    const alloc::ReplayResult replay =
        alloc::ReplayTrace(trace.requests, dev, static_bytes);
    if (!replay.status.ok()) {
      return OutOfMemoryError(
          StrFormat("activation allocation failed at request %d: %s",
                    replay.failed_index, replay.status.message().c_str()));
    }
    // Reorganization stalls: each event flushes cached segments via
    // cudaFree and blocks the GPU.
    reorg_events = replay.stats.num_reorg_events;
    reorg_stall =
        static_cast<double>(replay.stats.num_reorg_events) *
            cal.reorg_fixed_seconds +
        static_cast<double>(replay.stats.reorg_bytes_flushed) *
            cal.reorg_seconds_per_byte;
    activation_peak = replay.stats.peak_reserved_bytes - static_bytes;
  }

  // ---- Serial iteration time.
  const double cp_fwd_exposed = t.layer.cp_fwd_exposed;
  const double cp_bwd_exposed = t.layer.cp_bwd_exposed;
  const double layer_fwd =
      t.layer.fwd_compute + t.layer.fwd_comm + cp_fwd_exposed;
  const double recompute =
      strategy.full_recompute ? t.layer.recompute_full + cp_fwd_exposed : 0.0;
  const double layer_bwd =
      t.layer.bwd_compute + t.layer.bwd_comm + cp_bwd_exposed + recompute;

  if (strategy.virtual_pipeline > 1 &&
      kPipelineMicrobatches % strategy.pp != 0) {
    return InvalidArgumentError(
        "interleaved 1F1B needs microbatches divisible by pp");
  }
  double layer_time = layers * (layer_fwd + layer_bwd);
  if (strategy.pp > 1) {
    // Exact 1F1B schedule over sequence-chunk microbatches.
    parallel::PipelineSchedule ps;
    ps.stages = strategy.pp;
    ps.microbatches = kPipelineMicrobatches;
    ps.fwd_seconds = layers * layer_fwd / kPipelineMicrobatches;
    ps.bwd_seconds = layers * layer_bwd / kPipelineMicrobatches;
    ps.p2p_seconds = t.p2p_chunk_seconds;
    layer_time =
        strategy.virtual_pipeline > 1
            ? parallel::SimulateInterleaved1F1B(ps, strategy.virtual_pipeline)
                  .makespan_seconds
            : parallel::Simulate1F1B(ps).makespan_seconds;
  }
  double iteration = t.embedding * 2 + layer_time + t.classifier_fwd +
                     t.classifier_bwd + t.grad_sync + reorg_stall;
  iteration *= 1.0 + cal.iteration_fixed_overhead_fraction;

  IterationResult result;
  result.strategy = strategy;
  result.iteration_seconds = iteration;
  const int samples = strategy.dp;  // one sequence per DP replica
  result.metrics = cost::ComputeMetrics(request.model, request.seq, samples,
                                        cluster.total_gpus(),
                                        cluster.node.gpu.peak_flops, iteration);
  result.compute_seconds =
      layers * (t.layer.fwd_compute + t.layer.bwd_compute) +
      t.classifier_fwd + t.classifier_bwd;
  result.recompute_seconds = layers * recompute;
  result.exposed_comm_seconds =
      layers * (t.layer.fwd_comm + t.layer.bwd_comm + cp_fwd_exposed +
                cp_bwd_exposed) +
      t.grad_sync;
  result.reorg_stall_seconds = reorg_stall;
  result.reorg_events = reorg_events;
  result.model_state_bytes = model_state.total();
  result.activation_peak_bytes = activation_peak;
  result.peak_device_bytes = static_bytes + activation_peak;
  return result;
}

}  // namespace

StatusOr<IterationResult> RunMegatronIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy) {
  return RunBaseline(parallel::SystemKind::kMegatron, request, strategy,
                     /*extra_static_bytes=*/0);
}

StatusOr<IterationResult> RunDeepSpeedIteration(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy) {
  // ZeRO-3 keeps double-buffered gathered parameters for the current and
  // prefetched layers resident during compute.
  const std::int64_t gathered =
      2 * request.model.layer_parameters() *
      model::ModelConfig::kBytesPerElement;
  return RunBaseline(parallel::SystemKind::kDeepSpeed, request, strategy,
                     gathered);
}

}  // namespace memo::core
