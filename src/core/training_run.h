#ifndef MEMO_CORE_TRAINING_RUN_H_
#define MEMO_CORE_TRAINING_RUN_H_

#include <vector>

#include "core/session.h"

namespace memo::core {

/// A multi-iteration training run over variable-length batches (real
/// corpora are not all 1M-token documents). Single-iteration simulation
/// understates allocator dynamics: the caching allocator's pool persists
/// across iterations, so blocks cached for one sequence shape fragment the
/// next. This runner threads ONE allocator through every iteration for the
/// baseline systems; MEMO plans each distinct shape once and reuses the
/// plans (its runtime never touches an allocator).
struct TrainingRunOptions {
  int iterations = 8;
  /// Per-iteration sequence lengths, cycled. Every length must be valid for
  /// the strategy (divisible by CP * SP and the classifier chunking).
  std::vector<std::int64_t> seq_lengths;
  SessionOptions session;
  /// Iteration at which the NVMe spill tier fails permanently (-1 = never).
  /// From that iteration on, shapes whose plan spilled to disk are
  /// re-planned for the RAM-only budget — re-solving the §4.1 alpha split
  /// first and falling back to full recomputation when even that does not
  /// fit — and the run's stats are marked degraded. Shapes that never
  /// touched the disk tier are unaffected.
  int disk_fail_at_iteration = -1;
};

struct TrainingRunStats {
  double total_seconds = 0.0;
  /// Token-weighted aggregate metrics across the run.
  double avg_mfu = 0.0;
  double avg_tgs = 0.0;
  /// Allocator dynamics accumulated over the shared pool (baselines only).
  std::int64_t reorg_events = 0;
  double reorg_stall_seconds = 0.0;
  /// Distinct sequence shapes encountered (= number of plans MEMO solves).
  int distinct_shapes = 0;
  /// Peak reserved bytes of the shared allocator (baselines) or the largest
  /// per-shape static footprint (MEMO).
  std::int64_t peak_device_bytes = 0;
  /// Largest per-shape host-tier offload footprints (MEMO; zero for
  /// baselines, disk zero unless the cluster has an NVMe spill tier).
  std::int64_t peak_host_ram_bytes = 0;
  std::int64_t peak_host_disk_bytes = 0;
  /// Copy/compute overlap aggregated over the run: iteration-weighted mean
  /// overlap efficiency, total copy-stream busy time, total compute stall
  /// on swaps, and total bytes spilled to the disk tier. All trivial (1.0 /
  /// zero) for systems that do not swap.
  double avg_overlap_efficiency = 1.0;
  double copy_busy_seconds = 0.0;
  double swap_stall_seconds = 0.0;
  std::int64_t spill_bytes_total = 0;
  /// True when the disk tier died mid-run and at least one shape had to be
  /// re-planned for the reduced budget (see disk_fail_at_iteration).
  bool degraded = false;
  /// First iteration that ran on a degraded plan (-1 when never degraded).
  int degraded_at_iteration = -1;
};

/// Simulates `options.iterations` training iterations of `system` under a
/// fixed `strategy`. Fails with the OOM/OOHM of the first iteration that
/// does not fit (allocator state included for the baselines).
StatusOr<TrainingRunStats> SimulateTrainingRun(
    parallel::SystemKind system, const model::ModelConfig& model,
    const parallel::ParallelStrategy& strategy,
    const hw::ClusterSpec& cluster, const TrainingRunOptions& options);

}  // namespace memo::core

#endif  // MEMO_CORE_TRAINING_RUN_H_
