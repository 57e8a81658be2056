#ifndef MEMO_ALLOC_TRACE_REPLAY_H_
#define MEMO_ALLOC_TRACE_REPLAY_H_

#include <vector>

#include "alloc/caching_allocator.h"
#include "model/trace_gen.h"

namespace memo::alloc {

/// Outcome of replaying a memory request trace through an allocator.
struct ReplayResult {
  /// OK, or the OOM status of the first failed request.
  Status status = OkStatus();
  /// Index of the failed request, -1 on success.
  int failed_index = -1;
  AllocatorStats stats;
  std::vector<MemorySample> history;
};

/// Replays `requests` through a fresh CachingAllocator with the given
/// options. `static_bytes` models the permanently resident memory (model
/// parameters, gradients, optimizer states, MEMO's rounding buffers): it is
/// allocated first and never freed, exactly as frameworks allocate model
/// state before the first iteration. The requests then run through
/// ReplayTraceInto, so an OOM unwinds the live handles there too.
ReplayResult ReplayTrace(const std::vector<model::MemoryRequest>& requests,
                         const CachingAllocator::Options& options,
                         std::int64_t static_bytes = 0);

/// Replays `requests` through an EXISTING allocator, so multiple iterations
/// (possibly with different sequence lengths, as real variable-length
/// training batches have) share one cache — the regime where the PyTorch
/// allocator fragments: cached blocks from the previous shape no longer
/// match and reorganizations fire. On failure `failed_index` is the index
/// of the request that OOMed and the live handles are unwound so the
/// allocator stays reusable. `stats`/`history` snapshot the allocator
/// after the replay (stats accumulate across calls; history is the full
/// per-allocator sample record, present when the allocator records it).
ReplayResult ReplayTraceInto(
    CachingAllocator& allocator,
    const std::vector<model::MemoryRequest>& requests);

}  // namespace memo::alloc

#endif  // MEMO_ALLOC_TRACE_REPLAY_H_
