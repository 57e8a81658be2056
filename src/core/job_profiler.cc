#include "core/job_profiler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/executor.h"
#include "parallel/memory_model.h"

namespace memo::core {

namespace {

TieredAlphaInputs MemoAlphaInputs(const IterationTimings& timings,
                                  const hw::ClusterSpec& cluster,
                                  const hw::Calibration& calibration) {
  TieredAlphaInputs inputs;
  inputs.ram.s_input_bytes = timings.skeletal.input_bytes;
  inputs.ram.s_attn_bytes = timings.skeletal.attn_out_bytes;
  inputs.ram.s_others_bytes = timings.skeletal.others_bytes;
  inputs.ram.pcie_bytes_per_second =
      cluster.node.gpu.pcie_bandwidth * calibration.pcie_efficiency;
  inputs.ram.layer_forward_seconds = timings.layer.fwd_compute +
                                     timings.layer.fwd_comm +
                                     timings.layer.cp_fwd_exposed;
  inputs.ram.num_layers = timings.layers_per_stage;
  inputs.ram.host_bytes_per_gpu = cluster.host_bytes_per_gpu();
  inputs.disk_bytes_per_gpu = cluster.disk_bytes_per_gpu();
  inputs.disk_bytes_per_second =
      cluster.disk_bandwidth_per_gpu() * calibration.disk_efficiency;
  return inputs;
}

/// One pipeline stage of `request.model` under `strategy`, as the trace
/// generator sees it.
model::ModelConfig StageModel(const PlanRequest& request,
                              const parallel::ParallelStrategy& strategy) {
  model::ModelConfig stage = request.model;
  stage.num_layers = request.model.num_layers / strategy.pp;
  return stage;
}

model::TraceGenOptions StageTraceOptions(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy,
    model::ActivationMode mode) {
  model::TraceGenOptions options;
  options.seq_local = strategy.SeqLocal(request.seq);
  options.tensor_parallel = strategy.tp;
  options.mode = mode;
  return options;
}

}  // namespace

StatusOr<JobProfile> ProfileJob(const PlanRequest& request,
                                const parallel::ParallelStrategy& strategy) {
  MEMO_RETURN_IF_ERROR(parallel::ValidateStrategy(
      parallel::SystemKind::kMemo, strategy, request.model, request.cluster,
      request.seq));

  JobProfile profile;
  profile.timings = ComputeIterationTimings(
      parallel::SystemKind::kMemo, request.model, strategy, request.cluster,
      request.calibration, request.seq);
  profile.alpha_inputs =
      MemoAlphaInputs(profile.timings, request.cluster, request.calibration);
  const model::SkeletalLayout& skeletal = profile.timings.skeletal;

  // The swap fraction (Eq. 1-3, tiered: host RAM + optional NVMe spill).
  if (request.forced_alpha < 0.0) {
    MEMO_ASSIGN_OR_RETURN(const TieredAlphaResult solved,
                          SolveAlphaTiered(profile.alpha_inputs));
    profile.alpha = QuantizeTieredAlpha(solved, request.alpha_steps);
  } else {
    // Forced alphas (ablations, --alpha) must still fit the tiers: RAM
    // first, any remainder on disk, X_oohm only when both are exhausted.
    const double alpha = request.forced_alpha;
    const double per_layer =
        static_cast<double>(skeletal.input_bytes + skeletal.attn_out_bytes) +
        alpha * static_cast<double>(skeletal.others_bytes);
    const int swapped_layers =
        model::SwappedLayers(profile.timings.layers_per_stage);
    if (swapped_layers * per_layer >
        static_cast<double>(request.cluster.host_bytes_per_gpu()) +
            static_cast<double>(profile.alpha_inputs.disk_bytes_per_gpu)) {
      return OutOfHostMemoryError(
          StrFormat("offloading %.1f GiB/GPU exceeds the host share",
                    swapped_layers * per_layer / static_cast<double>(kGiB)));
    }
    profile.alpha = SplitAlphaRamFirst(profile.alpha_inputs, alpha);
  }
  profile.offload_bytes_per_layer =
      skeletal.input_bytes + skeletal.attn_out_bytes +
      static_cast<std::int64_t>(profile.alpha.alpha *
                                static_cast<double>(skeletal.others_bytes));

  profile.trace = model::GenerateModelTrace(
      StageModel(request, strategy),
      StageTraceOptions(request, strategy,
                        model::ActivationMode::kMemoBuffers));
  return profile;
}

std::int64_t ProfilingMigrationBytes(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy) {
  model::ModelConfig one_layer = StageModel(request, strategy);
  one_layer.num_layers = std::min(one_layer.num_layers, 3);
  const model::ModelTrace profiling_trace = model::GenerateModelTrace(
      one_layer, StageTraceOptions(request, strategy,
                                   model::ActivationMode::kFullRecompute));
  const std::int64_t footprint =
      profiling_trace.MaxLiveBytes() +
      parallel::ComputeModelStateBytes(request.model, strategy).total() +
      kDeviceReserveBytes;
  const std::int64_t overflow =
      footprint - request.cluster.node.gpu.memory_bytes;
  return std::max<std::int64_t>(0, 2 * overflow);
}

}  // namespace memo::core
