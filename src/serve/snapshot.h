#ifndef MEMO_SERVE_SNAPSHOT_H_
#define MEMO_SERVE_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "serve/plan_cache.h"

namespace memo::serve {

/// Warm-restart snapshot of the plan cache.
///
/// File layout (little-endian):
///   "MEMOSNP1"            8-byte magic
///   u32 version           currently 3
///   u32 count             entries
///   per entry:
///     u64 fingerprint
///     u32 kind            PlanQueryKind of the cached result
///     u32 status_code     solver-level StatusCode (OOM etc. are cached)
///     u32 msg_len + bytes status message
///     u32 len + bytes     deterministic SerializePlanResult payload
///   u64 checksum          FNV-1a over every preceding byte
///
/// The payload is the unit of the bit-identity contract: a restored entry
/// answers queries with the exact bytes the original cold solve produced.
/// The structured PlanResult is only partially rehydrated (status + kind;
/// `best` stays default) — everything the wire protocol ships lives in the
/// payload, so socket responses are unaffected.
///
/// Fault sites (chaos soak): "serve.snapshot_write", "serve.snapshot_read".

/// Writes every resident entry of `cache` to `path` atomically: the bytes
/// land in `path + ".tmp"` and are renamed into place only after a clean
/// flush, so a crash mid-save leaves the previous snapshot (or nothing)
/// behind, never a torn file. Returns the number of entries written.
StatusOr<int> SaveCacheSnapshot(const std::string& path,
                                const PlanCache& cache);

/// Restores a snapshot into `cache`. Any corruption — bad magic, unknown
/// version, truncation, checksum mismatch, an entry count the file cannot
/// hold (checked before anything is allocated) — returns kInvalidArgument
/// with the cache
/// left as it was, so callers log the failure and start cold instead of
/// crashing or trusting damaged bytes. A missing file is kNotFound (the
/// normal first boot). Entries are restored last to first, so each keeps
/// the recency it had when saved. Returns the number of entries restored.
StatusOr<int> LoadCacheSnapshot(const std::string& path, PlanCache* cache);

}  // namespace memo::serve

#endif  // MEMO_SERVE_SNAPSHOT_H_
