#ifndef MEMO_TRACE_CONVERT_H_
#define MEMO_TRACE_CONVERT_H_

#include <string>

#include "model/trace_gen.h"
#include "trace/trace_io.h"

namespace memo::trace {

// The verbose producers emit model::MemoryRequest streams; the binary form
// flattens a multi-iteration workload into one record stream plus segment
// and iteration tables in the aux section, so the full structure (which
// request belongs to which layer segment of which iteration) round-trips.

/// The .memotrc file image of every iteration of `workload` (records,
/// segments, iteration ranges).
std::string EncodeWorkload(const model::WorkloadTrace& workload,
                           const TraceWriterOptions& options = {});

/// A decoded trace in workload form. Traces written without iteration
/// entries decode as one iteration. An iteration whose mallocs and frees do
/// not pair (ModelTrace::Validate) or a trace that holds more than
/// model::kMaxLiveBytes live (WorkloadTrace::CheckLiveBytes) is
/// INVALID_ARGUMENT.
StatusOr<model::WorkloadTrace> ReadWorkload(const TraceReader& reader);

/// One-call file round trip; the file is written in place.
Status WriteWorkloadFile(const model::WorkloadTrace& workload,
                         const std::string& path,
                         const TraceWriterOptions& options = {});
StatusOr<model::WorkloadTrace> ReadWorkloadFile(const std::string& path);

/// The verbose JSON equivalent of a workload trace (one object per
/// request), the baseline the compact binary's size ratio is measured
/// against. Deterministic: emission order is the flattened record order.
std::string WorkloadToJson(const model::WorkloadTrace& workload);

}  // namespace memo::trace

#endif  // MEMO_TRACE_CONVERT_H_
