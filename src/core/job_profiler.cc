#include "core/job_profiler.h"

#include <algorithm>

#include "common/logging.h"
#include "core/memo_executor.h"

namespace memo::core {

StatusOr<JobProfile> ProfileJob(const Workload& workload,
                                const parallel::ParallelStrategy& strategy,
                                const hw::ClusterSpec& cluster,
                                const JobProfilerOptions& options) {
  MEMO_RETURN_IF_ERROR(parallel::ValidateStrategy(
      parallel::SystemKind::kMemo, strategy, workload.model, cluster,
      workload.seq));

  JobProfile profile;
  profile.timings = ComputeIterationTimings(
      parallel::SystemKind::kMemo, workload.model, strategy, cluster,
      options.calibration, workload.seq);
  profile.skeletal = profile.timings.skeletal;

  model::ModelConfig stage_model = workload.model;
  stage_model.num_layers = profile.timings.layers_per_stage;
  model::TraceGenOptions trace_options;
  trace_options.seq_local = strategy.SeqLocal(workload.seq);
  trace_options.tensor_parallel = strategy.tp;
  trace_options.mode = model::ActivationMode::kMemoBuffers;
  profile.trace = model::GenerateModelTrace(stage_model, trace_options);

  MEMO_ASSIGN_OR_RETURN(
      const TieredAlphaResult solved,
      SolveAlphaTiered(MemoAlphaInputs(profile.timings, cluster,
                                       options.calibration)));
  profile.alpha = QuantizeTieredAlpha(solved, options.alpha_steps);

  profile.offload_bytes_per_layer =
      profile.skeletal.input_bytes + profile.skeletal.attn_out_bytes +
      static_cast<std::int64_t>(
          profile.alpha.alpha *
          static_cast<double>(profile.skeletal.others_bytes));

  // §4.3.2: the profiler runs with the MEMO techniques disabled, so its own
  // footprint is one vanilla layer footprint on top of the model state. If
  // that exceeds the device, the real profiler flips the allocator to CUDA
  // Unified Memory; the migration traffic is the overflow paged out and
  // back once per profiling pass.
  model::TraceGenOptions vanilla = trace_options;
  vanilla.mode = model::ActivationMode::kFullRecompute;
  model::ModelConfig one_layer = stage_model;
  one_layer.num_layers = std::min(one_layer.num_layers, 3);
  const model::ModelTrace profiling_trace =
      model::GenerateModelTrace(one_layer, vanilla);
  const std::int64_t profiling_live = profiling_trace.MaxLiveBytes();
  const std::int64_t overflow =
      profiling_live - cluster.node.gpu.memory_bytes;
  if (overflow > 0) {
    profile.profiling_needs_unified_memory = true;
    profile.profiling_migration_bytes = 2 * overflow;
  }
  return profile;
}

}  // namespace memo::core
