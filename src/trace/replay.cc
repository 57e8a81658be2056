#include "trace/replay.h"

#include <cstdio>
#include <sstream>

#include "obs/json.h"
#include "planner/bilevel_planner.h"
#include "planner/plan_io.h"
#include "trace/convert.h"

namespace memo::trace {

namespace {

/// Fixed-precision decimal so summary JSON is byte-stable across hosts.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::string ReplaySummary::ToJson() const {
  std::ostringstream out;
  out << "{\"trace_fingerprint\":\"" << std::hex << trace_fingerprint
      << std::dec << "\",\"iterations\":" << iterations
      << ",\"total_requests\":" << total_requests
      << ",\"final\":{\"reorg_events\":" << final_stats.num_reorg_events
      << ",\"reorg_bytes_flushed\":" << final_stats.reorg_bytes_flushed
      << ",\"peak_allocated_bytes\":" << final_stats.peak_allocated_bytes
      << ",\"peak_reserved_bytes\":" << final_stats.peak_reserved_bytes
      << ",\"num_allocs\":" << final_stats.num_allocs
      << ",\"num_frees\":" << final_stats.num_frees
      << ",\"num_device_mallocs\":" << final_stats.num_device_mallocs
      << ",\"num_device_frees\":" << final_stats.num_device_frees
      << ",\"fragmentation\":" << FormatDouble(final_fragmentation)
      << "},\"per_iteration\":[";
  for (std::size_t i = 0; i < per_iteration.size(); ++i) {
    if (i > 0) out << ",";
    const IterationReplay& it = per_iteration[i];
    out << "{\"index\":" << i << ",\"requests\":" << it.requests
        << ",\"max_live_bytes\":" << it.max_live_bytes
        << ",\"replay_ok\":" << (it.replay_ok ? "true" : "false")
        << ",\"failed_index\":" << it.failed_index << ",\"replay_error\":\""
        << obs::JsonEscape(it.replay_error)
        << "\",\"reorg_events\":" << it.reorg_events
        << ",\"reorg_bytes_flushed\":" << it.reorg_bytes_flushed
        << ",\"reserved_after\":" << it.reserved_after
        << ",\"fragmentation_after\":"
        << FormatDouble(it.fragmentation_after)
        << ",\"plan_ok\":" << (it.plan_ok ? "true" : "false")
        << ",\"plan_error\":\"" << obs::JsonEscape(it.plan_error)
        << "\",\"plan_fingerprint\":\"" << std::hex << it.plan_fingerprint
        << std::dec << "\",\"plan_arena_bytes\":" << it.plan_arena_bytes
        << "}";
  }
  out << "]}";
  return out.str();
}

ReplaySummary ReplayWorkload(const model::WorkloadTrace& workload,
                             const ReplayOptions& options) {
  ReplaySummary summary;
  summary.iterations = workload.iterations.size();
  summary.total_requests = workload.TotalRequests();

  alloc::CachingAllocator allocator(options.allocator);
  if (options.static_bytes > 0) {
    // Model state is resident for the whole replay; failure to fit it is
    // recorded on iteration 0 (an empty workload has nowhere to note it).
    auto handle = allocator.Allocate(options.static_bytes);
    (void)handle;
  }

  std::int64_t reorgs_before = allocator.stats().num_reorg_events;
  std::int64_t flushed_before = allocator.stats().reorg_bytes_flushed;
  for (const model::ModelTrace& trace : workload.iterations) {
    IterationReplay iter;
    iter.requests = trace.requests.size();
    iter.max_live_bytes = trace.MaxLiveBytes();

    const alloc::ReplayResult result =
        alloc::ReplayTraceInto(allocator, trace.requests);
    iter.replay_ok = result.status.ok();
    iter.replay_error =
        result.status.ok() ? "" : result.status.ToString();
    iter.failed_index = result.failed_index;
    iter.reorg_events = result.stats.num_reorg_events - reorgs_before;
    iter.reorg_bytes_flushed =
        result.stats.reorg_bytes_flushed - flushed_before;
    reorgs_before = result.stats.num_reorg_events;
    flushed_before = result.stats.reorg_bytes_flushed;
    iter.reserved_after = result.stats.reserved_bytes;
    iter.fragmentation_after = allocator.FragmentationIndex();

    if (options.run_planner) {
      const auto plan = planner::PlanMemory(trace);
      if (plan.ok()) {
        iter.plan_ok = true;
        iter.plan_fingerprint = planner::PlanFingerprint(plan.value());
        iter.plan_arena_bytes = plan.value().arena_bytes;
      } else {
        iter.plan_error = plan.status().ToString();
      }
    }
    summary.per_iteration.push_back(std::move(iter));
  }

  summary.final_stats = allocator.stats();
  summary.final_fragmentation = allocator.FragmentationIndex();
  return summary;
}

StatusOr<ReplaySummary> ReplayTraceFile(const std::string& path,
                                        const ReplayOptions& options) {
  MEMO_ASSIGN_OR_RETURN(const TraceReader reader, TraceReader::Open(path));
  MEMO_ASSIGN_OR_RETURN(const model::WorkloadTrace workload,
                        ReadWorkload(reader));
  ReplaySummary summary = ReplayWorkload(workload, options);
  summary.trace_fingerprint = reader.ContentFingerprint();
  return summary;
}

StatusOr<TraceDiff> DiffTraceFiles(const std::string& path_a,
                                   const std::string& path_b) {
  MEMO_ASSIGN_OR_RETURN(const TraceReader a, TraceReader::Open(path_a));
  MEMO_ASSIGN_OR_RETURN(const TraceReader b, TraceReader::Open(path_b));
  TraceDiff diff;
  auto note = [&diff](std::string line) {
    diff.differences.push_back(std::move(line));
  };

  if (a.record_count() != b.record_count()) {
    note("record_count: " + std::to_string(a.record_count()) + " vs " +
         std::to_string(b.record_count()));
  }
  if (a.segments().size() != b.segments().size()) {
    note("segments: " + std::to_string(a.segments().size()) + " vs " +
         std::to_string(b.segments().size()));
  }
  if (a.iterations().size() != b.iterations().size()) {
    note("iterations: " + std::to_string(a.iterations().size()) + " vs " +
         std::to_string(b.iterations().size()));
  }
  const std::uint64_t fp_a = a.ContentFingerprint();
  const std::uint64_t fp_b = b.ContentFingerprint();
  if (fp_a != fp_b) {
    std::ostringstream line;
    line << "content_fingerprint: " << std::hex << fp_a << " vs " << fp_b;
    note(line.str());
  }
  diff.equal = diff.differences.empty();
  return diff;
}

}  // namespace memo::trace
