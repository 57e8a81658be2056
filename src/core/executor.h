#ifndef MEMO_CORE_EXECUTOR_H_
#define MEMO_CORE_EXECUTOR_H_

#include <cstdint>

#include "common/status.h"
#include "cost/metrics.h"
#include "hw/calibration.h"
#include "hw/gpu_spec.h"
#include "parallel/strategy.h"

namespace memo::core {

/// The simulated outcome of one training iteration on one system. Failure
/// (GPU OOM / host OOM) is reported through the StatusOr wrapper by the
/// executors, so a populated IterationResult always describes a run that
/// fits in memory.
struct IterationResult {
  parallel::ParallelStrategy strategy;
  double iteration_seconds = 0.0;
  cost::TrainingMetrics metrics;

  // Time breakdown (seconds per iteration, per GPU).
  double compute_seconds = 0.0;        // useful fwd/bwd kernels
  double recompute_seconds = 0.0;      // redundant rematerialization
  double exposed_comm_seconds = 0.0;   // collectives not hidden by compute
  double swap_stall_seconds = 0.0;     // compute blocked on PCIe transfers
  double reorg_stall_seconds = 0.0;    // allocator cache-flush stalls
  std::int64_t reorg_events = 0;

  // Copy/compute overlap: total busy time of the offload + prefetch streams
  // and the fraction of it hidden behind compute (1 - stall / busy, clamped
  // to [0, 1]; 1.0 when nothing is swapped).
  double copy_busy_seconds = 0.0;
  double overlap_efficiency = 1.0;
  // Seconds the copy streams sat idle within the iteration (makespan minus
  // combined busy time, floored at 0) — headroom left on the PCIe link.
  double copy_idle_seconds = 0.0;

  // Memory accounting (bytes, per GPU).
  std::int64_t model_state_bytes = 0;
  std::int64_t activation_peak_bytes = 0;  // dynamic (allocator or arena)
  std::int64_t buffer_bytes = 0;           // MEMO rounding buffers
  std::int64_t peak_device_bytes = 0;
  std::int64_t host_offload_bytes = 0;     // per GPU, CPU side

  // Tier split of the offloaded bytes (RAM + disk == host_offload_bytes;
  // disk stays 0 unless the cluster configures an NVMe spill tier).
  std::int64_t host_ram_bytes = 0;
  std::int64_t host_disk_bytes = 0;
  // Busy time of the NVMe-analog spill stream (0 without a disk tier).
  double disk_busy_seconds = 0.0;

  // MEMO-specific.
  double alpha = 0.0;
  // Tier split of the swapped fraction (alpha_ram + alpha_disk == alpha).
  double alpha_ram = 0.0;
  double alpha_disk = 0.0;
};

/// Device bytes held back from the allocator for CUDA context, NCCL buffers
/// and cudnn workspaces — present in every framework.
inline constexpr std::int64_t kDeviceReserveBytes = std::int64_t{1} << 30;

}  // namespace memo::core

#endif  // MEMO_CORE_EXECUTOR_H_
