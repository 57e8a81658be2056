#include "core/training_run.h"

#include <algorithm>
#include <map>

#include "alloc/trace_replay.h"
#include "common/logging.h"
#include "core/plan_request.h"
#include "model/trace_gen.h"
#include "parallel/memory_model.h"

namespace memo::core {

StatusOr<TrainingRunStats> SimulateTrainingRun(
    parallel::SystemKind system, const model::ModelConfig& model,
    const parallel::ParallelStrategy& strategy,
    const hw::ClusterSpec& cluster, const TrainingRunOptions& options) {
  if (options.iterations <= 0) {
    return InvalidArgumentError("iterations must be > 0");
  }
  if (options.seq_lengths.empty()) {
    return InvalidArgumentError("seq_lengths must not be empty");
  }
  const hw::Calibration& cal =
      system == parallel::SystemKind::kMemo
          ? options.session.memo.calibration
          : options.session.baseline.calibration;

  // Per-shape solves route through the immutable PlanRequest form (one
  // request per distinct shape — the same fingerprint the serve-mode plan
  // cache would key on). ExecutePlanRequest(kStrategy) is RunStrategy.
  const PlanExecOptions exec{options.session.memo.timeline_path};
  auto shape_request = [&](std::int64_t seq, const hw::ClusterSpec& spec,
                           const parallel::ParallelStrategy& s) {
    PlanRequest request = PlanRequestFromSession(
        system, Workload{model, seq}, spec, options.session);
    request.kind = PlanQueryKind::kStrategy;
    request.strategy = s;
    return request;
  };

  // Per-shape timing memo: a PlanRequest's answer is deterministic.
  std::map<std::int64_t, IterationResult> per_shape;
  for (std::int64_t seq : options.seq_lengths) {
    if (per_shape.count(seq) > 0) continue;
    const PlanResult run =
        ExecutePlanRequest(shape_request(seq, cluster, strategy), exec);
    if (!run.status.ok()) return run.status;
    per_shape.emplace(seq, run.best);
  }

  // Degraded re-plans after the disk tier dies: shapes that spilled to the
  // NVMe tier are re-solved against a cluster without one (the §4.1 alpha
  // LP for the reduced RAM-only budget); when even that does not fit, the
  // strategy drops to full recomputation — finish slower, never abort.
  std::map<std::int64_t, IterationResult> degraded_shape;
  hw::ClusterSpec no_disk_cluster = cluster;
  no_disk_cluster.node.nvme_bytes = 0;
  auto degraded_plan =
      [&](std::int64_t seq) -> StatusOr<const IterationResult*> {
    auto it = degraded_shape.find(seq);
    if (it == degraded_shape.end()) {
      PlanResult replan = ExecutePlanRequest(
          shape_request(seq, no_disk_cluster, strategy), exec);
      if (!replan.status.ok()) {
        parallel::ParallelStrategy recompute_strategy = strategy;
        recompute_strategy.full_recompute = true;
        replan = ExecutePlanRequest(
            shape_request(seq, no_disk_cluster, recompute_strategy), exec);
      }
      if (!replan.status.ok()) return replan.status;
      replan.best.degraded = true;
      it = degraded_shape.emplace(seq, replan.best).first;
    }
    return &it->second;
  };

  // For baselines, thread one allocator through every iteration so the
  // cache carries state across shapes; reorg stalls come from this shared
  // pool, replacing the per-call fresh-allocator figures.
  const bool shares_allocator = system != parallel::SystemKind::kMemo;
  alloc::CachingAllocator::Options dev;
  dev.capacity_bytes = cluster.node.gpu.memory_bytes;
  alloc::CachingAllocator shared(dev);
  if (shares_allocator) {
    const auto states = parallel::ComputeModelStateBytes(model, strategy);
    std::int64_t static_bytes = states.total() + kDeviceReserveBytes;
    if (system == parallel::SystemKind::kDeepSpeed) {
      static_bytes += 2 * model.layer_parameters() *
                      model::ModelConfig::kBytesPerElement;
    }
    auto h = shared.Allocate(static_bytes);
    if (!h.ok()) return h.status();
  }

  TrainingRunStats stats;
  stats.distinct_shapes = static_cast<int>(per_shape.size());
  double total_model_flops = 0.0;
  double total_tokens = 0.0;
  double overlap_sum = 0.0;
  std::int64_t reorgs_before = 0;
  std::int64_t flushed_before = 0;

  for (int iter = 0; iter < options.iterations; ++iter) {
    const std::int64_t seq =
        options.seq_lengths[iter % options.seq_lengths.size()];
    const IterationResult* shape_ptr = &per_shape.at(seq);
    const bool disk_dead = options.disk_fail_at_iteration >= 0 &&
                           iter >= options.disk_fail_at_iteration;
    if (disk_dead &&
        (shape_ptr->host_disk_bytes > 0 || shape_ptr->alpha_disk > 0.0)) {
      MEMO_ASSIGN_OR_RETURN(shape_ptr, degraded_plan(seq));
      stats.degraded = true;
      if (stats.degraded_at_iteration < 0) {
        stats.degraded_at_iteration = iter;
      }
    }
    const IterationResult& shape = *shape_ptr;

    double iteration = shape.iteration_seconds - shape.reorg_stall_seconds;
    if (shares_allocator) {
      model::ModelConfig stage_model = model;
      stage_model.num_layers = model.num_layers / strategy.pp;
      model::TraceGenOptions trace_options;
      trace_options.seq_local = strategy.SeqLocal(seq);
      trace_options.tensor_parallel = strategy.tp;
      trace_options.mode = strategy.full_recompute
                               ? model::ActivationMode::kFullRecompute
                               : model::ActivationMode::kRetainAll;
      if (system == parallel::SystemKind::kDeepSpeed) {
        trace_options.classifier_chunks = 1;
      }
      const auto trace = model::GenerateModelTrace(stage_model, trace_options);
      MEMO_RETURN_IF_ERROR(
          alloc::ReplayTraceInto(shared, trace.requests).status);
      const std::int64_t new_reorgs =
          shared.stats().num_reorg_events - reorgs_before;
      const std::int64_t new_flushed =
          shared.stats().reorg_bytes_flushed - flushed_before;
      reorgs_before = shared.stats().num_reorg_events;
      flushed_before = shared.stats().reorg_bytes_flushed;
      const double stall =
          static_cast<double>(new_reorgs) * cal.reorg_fixed_seconds +
          static_cast<double>(new_flushed) * cal.reorg_seconds_per_byte;
      iteration += stall;
      stats.reorg_events += new_reorgs;
      stats.reorg_stall_seconds += stall;
    }

    stats.total_seconds += iteration;
    total_model_flops += cost::ModelFlopsPerSample(model, seq) * strategy.dp;
    total_tokens += static_cast<double>(seq) * strategy.dp;
    stats.peak_device_bytes =
        std::max(stats.peak_device_bytes,
                 shares_allocator ? shared.stats().peak_reserved_bytes
                                  : shape.peak_device_bytes);
    stats.peak_host_ram_bytes =
        std::max(stats.peak_host_ram_bytes, shape.host_ram_bytes);
    stats.peak_host_disk_bytes =
        std::max(stats.peak_host_disk_bytes, shape.host_disk_bytes);
    stats.copy_busy_seconds += shape.copy_busy_seconds;
    stats.swap_stall_seconds += shape.swap_stall_seconds;
    stats.spill_bytes_total += shape.host_disk_bytes;
    overlap_sum += shape.overlap_efficiency;
  }

  stats.avg_mfu = total_model_flops /
                  (stats.total_seconds * cluster.node.gpu.peak_flops *
                   cluster.total_gpus());
  stats.avg_tgs =
      total_tokens / (stats.total_seconds * cluster.total_gpus());
  stats.avg_overlap_efficiency = overlap_sum / options.iterations;
  return stats;
}

}  // namespace memo::core
