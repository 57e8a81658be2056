#ifndef MEMO_TRACE_REPLAY_H_
#define MEMO_TRACE_REPLAY_H_

#include <string>
#include <vector>

#include "alloc/trace_replay.h"
#include "model/trace_gen.h"
#include "trace/trace_io.h"

namespace memo::trace {

/// Configuration of a workload replay run.
struct ReplayOptions {
  alloc::CachingAllocator::Options allocator;
  /// Permanently resident bytes allocated before iteration 0 (model
  /// state); see alloc::ReplayTrace.
  std::int64_t static_bytes = 0;
  /// Also run the bi-level planner on each iteration's trace and record
  /// the plan fingerprint (planner drift shows up in `trace diff` even
  /// when allocator behavior is unchanged).
  bool run_planner = true;
};

/// Per-iteration replay outcome. Deltas are this iteration's contribution
/// (the allocator is shared across iterations, so raw stats accumulate).
struct IterationReplay {
  std::size_t requests = 0;
  std::int64_t max_live_bytes = 0;
  bool replay_ok = true;
  /// Status message of the failed request, "" on success.
  std::string replay_error;
  int failed_index = -1;
  std::int64_t reorg_events = 0;
  std::int64_t reorg_bytes_flushed = 0;
  std::int64_t reserved_after = 0;
  double fragmentation_after = 0.0;
  bool plan_ok = false;
  std::string plan_error;  // "" when planning succeeded or was skipped
  std::uint64_t plan_fingerprint = 0;
  std::int64_t plan_arena_bytes = 0;
};

/// Whole-workload replay outcome: what `memo_cli trace replay` emits and
/// what regression runs diff across commits. ToJson() is deterministic —
/// replaying the same trace twice yields byte-identical JSON.
struct ReplaySummary {
  std::uint64_t trace_fingerprint = 0;  // ContentFingerprint of the source
  std::size_t iterations = 0;
  std::size_t total_requests = 0;
  alloc::AllocatorStats final_stats;
  double final_fragmentation = 0.0;
  std::vector<IterationReplay> per_iteration;

  std::string ToJson() const;
};

/// Feeds every iteration of `workload` through ONE shared CachingAllocator
/// (the fragmentation regime of Fig. 1a) and, optionally, the bi-level
/// planner. Infallible aside from programmer error: request-level OOM is
/// data, recorded per iteration, not an error of the replay itself.
ReplaySummary ReplayWorkload(const model::WorkloadTrace& workload,
                             const ReplayOptions& options = {});

/// Opens a recorded trace file and replays it; the summary
/// carries the trace's content fingerprint.
StatusOr<ReplaySummary> ReplayTraceFile(const std::string& path,
                                        const ReplayOptions& options = {});

/// Content comparison of two binary trace files. Equality is judged on
/// decoded content (records with names resolved, aux tables), so a
/// compressed and an uncompressed copy of the same trace compare equal.
struct TraceDiff {
  bool equal = false;
  /// Human-readable difference lines, empty when equal.
  std::vector<std::string> differences;
};

StatusOr<TraceDiff> DiffTraceFiles(const std::string& path_a,
                                   const std::string& path_b);

}  // namespace memo::trace

#endif  // MEMO_TRACE_REPLAY_H_
