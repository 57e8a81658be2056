#include "alloc/trace_replay.h"

#include <unordered_map>

#include "common/logging.h"

namespace memo::alloc {

ReplayResult ReplayTrace(const std::vector<model::MemoryRequest>& requests,
                         const CachingAllocator::Options& options,
                         std::int64_t static_bytes) {
  CachingAllocator allocator(options);
  if (static_bytes > 0) {
    auto handle = allocator.Allocate(static_bytes);
    if (!handle.ok()) {
      ReplayResult result;
      result.status = handle.status();
      result.stats = allocator.stats();
      return result;
    }
  }
  return ReplayTraceInto(allocator, requests);
}

ReplayResult ReplayTraceInto(
    CachingAllocator& allocator,
    const std::vector<model::MemoryRequest>& requests) {
  ReplayResult result;
  std::unordered_map<std::int64_t, std::uint64_t> handles;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const model::MemoryRequest& r = requests[i];
    if (r.kind == model::MemoryRequest::Kind::kMalloc) {
      auto handle = allocator.Allocate(r.bytes);
      if (!handle.ok()) {
        // Unwind live handles so the allocator is reusable after failure.
        for (auto& [id, h] : handles) {
          MEMO_CHECK_OK(allocator.Free(h));
        }
        result.status = handle.status();
        result.failed_index = static_cast<int>(i);
        break;
      }
      handles[r.tensor_id] = handle.value();
    } else {
      auto it = handles.find(r.tensor_id);
      MEMO_CHECK(it != handles.end())
          << "trace frees unknown tensor " << r.name;
      MEMO_CHECK_OK(allocator.Free(it->second));
      handles.erase(it);
    }
  }
  result.stats = allocator.stats();
  result.history = allocator.history();
  return result;
}

}  // namespace memo::alloc
