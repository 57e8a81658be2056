#include "trace/convert.h"

#include <sstream>

#include "common/file_io.h"
#include "obs/json.h"

namespace memo::trace {

std::string EncodeWorkload(const model::WorkloadTrace& workload,
                           const TraceWriterOptions& options) {
  TraceWriter writer(options);
  std::uint32_t req_base = 0;
  std::uint32_t seg_base = 0;
  for (const model::ModelTrace& iteration : workload.iterations) {
    for (const model::MemoryRequest& r : iteration.requests) {
      AllocRecord record;
      record.op = r.kind == model::MemoryRequest::Kind::kMalloc ? kOpMalloc
                                                                : kOpFree;
      record.flags = r.skeletal ? kAllocFlagSkeletal : 0;
      record.name_id = writer.InternString(r.name);
      record.tensor_id = r.tensor_id;
      record.bytes = r.bytes;
      writer.AppendAlloc(record);
    }
    for (const model::TraceSegment& s : iteration.segments) {
      SegmentEntry entry;
      entry.name_id = writer.InternString(s.name);
      entry.begin = req_base + static_cast<std::uint32_t>(s.begin);
      entry.end = req_base + static_cast<std::uint32_t>(s.end);
      entry.layer = s.layer;
      writer.AddSegment(entry);
    }
    IterationEntry entry;
    entry.req_begin = req_base;
    entry.req_end =
        req_base + static_cast<std::uint32_t>(iteration.requests.size());
    entry.seg_begin = seg_base;
    entry.seg_end =
        seg_base + static_cast<std::uint32_t>(iteration.segments.size());
    writer.AddIteration(entry);
    req_base = entry.req_end;
    seg_base = entry.seg_end;
  }
  return writer.Finish();
}

StatusOr<model::WorkloadTrace> ReadWorkload(const TraceReader& reader) {
  std::vector<IterationEntry> iterations = reader.iterations();
  if (iterations.empty()) {
    // Legacy single-iteration trace: all records, all segments.
    IterationEntry all;
    all.req_end = static_cast<std::uint32_t>(reader.records().size());
    all.seg_end = static_cast<std::uint32_t>(reader.segments().size());
    iterations.push_back(all);
  }

  model::WorkloadTrace workload;
  workload.iterations.reserve(iterations.size());
  for (const IterationEntry& it : iterations) {
    model::ModelTrace trace;
    trace.requests.reserve(it.req_end - it.req_begin);
    for (std::uint32_t i = it.req_begin; i < it.req_end; ++i) {
      const AllocRecord& record = reader.records()[i];
      model::MemoryRequest r;
      r.kind = record.op == kOpMalloc ? model::MemoryRequest::Kind::kMalloc
                                      : model::MemoryRequest::Kind::kFree;
      r.tensor_id = record.tensor_id;
      r.bytes = record.bytes;
      r.skeletal = (record.flags & kAllocFlagSkeletal) != 0;
      r.name = reader.String(record.name_id);
      trace.requests.push_back(std::move(r));
    }
    for (std::uint32_t s = it.seg_begin; s < it.seg_end; ++s) {
      const SegmentEntry& entry = reader.segments()[s];
      if (entry.begin < it.req_begin || entry.end > it.req_end) {
        return InvalidArgumentError(
            "trace segment crosses its iteration boundary");
      }
      model::TraceSegment seg;
      seg.name = reader.String(entry.name_id);
      seg.begin = static_cast<int>(entry.begin - it.req_begin);
      seg.end = static_cast<int>(entry.end - it.req_begin);
      seg.layer = entry.layer;
      trace.segments.push_back(std::move(seg));
    }
    // The replay asserts this pairing, so a file that breaks it stops here.
    if (const Status valid = trace.Validate(); !valid.ok()) {
      return InvalidArgumentError(
          "trace iteration " + std::to_string(workload.iterations.size()) +
          ": " + valid.message());
    }
    workload.iterations.push_back(std::move(trace));
  }
  MEMO_RETURN_IF_ERROR(workload.CheckLiveBytes());
  return workload;
}

Status WriteWorkloadFile(const model::WorkloadTrace& workload,
                         const std::string& path,
                         const TraceWriterOptions& options) {
  return WriteWholeFile(path, EncodeWorkload(workload, options), "trace",
                        WriteMode::kInPlace);
}

StatusOr<model::WorkloadTrace> ReadWorkloadFile(const std::string& path) {
  MEMO_ASSIGN_OR_RETURN(const TraceReader reader, TraceReader::Open(path));
  return ReadWorkload(reader);
}

std::string WorkloadToJson(const model::WorkloadTrace& workload) {
  std::ostringstream out;
  out << "{\"iterations\":[";
  for (std::size_t i = 0; i < workload.iterations.size(); ++i) {
    if (i > 0) out << ",";
    const model::ModelTrace& it = workload.iterations[i];
    out << "{\"requests\":[";
    for (std::size_t r = 0; r < it.requests.size(); ++r) {
      if (r > 0) out << ",";
      const model::MemoryRequest& req = it.requests[r];
      out << "{\"op\":\""
          << (req.kind == model::MemoryRequest::Kind::kMalloc ? "malloc"
                                                              : "free")
          << "\",\"tensor_id\":" << req.tensor_id
          << ",\"bytes\":" << req.bytes
          << ",\"skeletal\":" << (req.skeletal ? "true" : "false")
          << ",\"name\":\"" << obs::JsonEscape(req.name) << "\"}";
    }
    out << "],\"segments\":[";
    for (std::size_t s = 0; s < it.segments.size(); ++s) {
      if (s > 0) out << ",";
      const model::TraceSegment& seg = it.segments[s];
      out << "{\"name\":\"" << obs::JsonEscape(seg.name)
          << "\",\"begin\":" << seg.begin << ",\"end\":" << seg.end
          << ",\"layer\":" << seg.layer << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace memo::trace
