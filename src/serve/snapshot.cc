#include "serve/snapshot.h"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"

namespace memo::serve {

namespace {

constexpr char kMagic[8] = {'M', 'E', 'M', 'O', 'S', 'N', 'P', '1'};
/// Bumped whenever PlanRequest fingerprints or the payload bytes change
/// meaning: a snapshot keyed by old fingerprints holds entries no request
/// can reach, and one holding old payloads would serve bytes a cold solve
/// no longer produces (v2 payloads still carry "degraded"), so it starts
/// cold instead.
constexpr std::uint32_t kVersion = 3;

/// Smallest encoded entry: fingerprint, kind, status code and the two
/// length fields.
constexpr std::size_t kMinEntryBytes = 8 + 4 + 4 + 4 + 4;

}  // namespace

StatusOr<int> SaveCacheSnapshot(const std::string& path,
                                const PlanCache& cache) {
  MEMO_RETURN_IF_ERROR(
      FaultInjector::Global().MaybeFail("serve.snapshot_write"));
  const auto entries = cache.Entries();

  std::string file;
  ByteWriter out(&file);
  out.Bytes({kMagic, sizeof(kMagic)});
  out.U32(kVersion);
  out.U32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    const CachedPlan& plan = *entry.second;
    out.U64(entry.first);
    out.U32(static_cast<std::uint32_t>(plan.result.kind));
    out.U32(static_cast<std::uint32_t>(plan.result.status.code()));
    const std::string& msg = plan.result.status.message();
    out.U32(static_cast<std::uint32_t>(msg.size()));
    out.Bytes(msg);
    out.U32(static_cast<std::uint32_t>(plan.payload.size()));
    out.Bytes(plan.payload);
  }
  out.U64(Fnv1a64(file));

  MEMO_RETURN_IF_ERROR(
      WriteWholeFile(path, file, "snapshot", WriteMode::kAtomic));
  obs::MetricsRegistry::Global().counter("serve.snapshot.saved")->Add(1);
  return static_cast<int>(entries.size());
}

StatusOr<int> LoadCacheSnapshot(const std::string& path, PlanCache* cache) {
  MEMO_RETURN_IF_ERROR(
      FaultInjector::Global().MaybeFail("serve.snapshot_read"));
  MEMO_ASSIGN_OR_RETURN(const std::string data,
                        ReadWholeFile(path, "snapshot"));
  const std::string what = "snapshot " + path;
  if (data.size() < sizeof(kMagic) + 4 + 4 + 8 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError(what + ": bad magic or truncated header");
  }
  // Verify the footer checksum over everything before it FIRST: every later
  // parse step may then trust the bytes.
  const std::string_view covered(data.data(), data.size() - 8);
  ByteReader tail(std::string_view(data).substr(covered.size()),
                  StatusCode::kInvalidArgument, what);
  std::uint64_t stored = 0;
  MEMO_RETURN_IF_ERROR(tail.U64(&stored));
  if (stored != Fnv1a64(covered)) {
    return InvalidArgumentError(what + ": checksum mismatch (corrupt file)");
  }

  ByteReader body(covered.substr(sizeof(kMagic)),
                  StatusCode::kInvalidArgument, what);
  std::uint32_t version = 0;
  MEMO_RETURN_IF_ERROR(body.U32(&version));
  if (version != kVersion) {
    return body.Error("unsupported version " + std::to_string(version));
  }
  std::uint32_t count = 0;
  MEMO_RETURN_IF_ERROR(body.Count(kMinEntryBytes, &count));

  std::vector<std::pair<std::uint64_t, std::shared_ptr<CachedPlan>>> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t fingerprint = 0;
    std::uint32_t kind = 0;
    std::uint32_t code = 0;
    std::uint32_t len = 0;
    std::string_view message;
    std::string_view payload;
    MEMO_RETURN_IF_ERROR(body.U64(&fingerprint));
    MEMO_RETURN_IF_ERROR(body.U32(&kind));
    MEMO_RETURN_IF_ERROR(body.U32(&code));
    MEMO_RETURN_IF_ERROR(body.U32(&len));
    MEMO_RETURN_IF_ERROR(body.Bytes(len, &message));
    MEMO_RETURN_IF_ERROR(body.U32(&len));
    MEMO_RETURN_IF_ERROR(body.Bytes(len, &payload));
    auto plan = std::make_shared<CachedPlan>();
    plan->payload = payload;
    plan->result.kind = static_cast<core::PlanQueryKind>(kind);
    plan->result.status =
        code == 0 ? OkStatus()
                  : Status(static_cast<StatusCode>(code), std::string(message));
    loaded.emplace_back(fingerprint, std::move(plan));
  }
  if (!body.AtEnd()) return body.Error("trailing bytes after last entry");

  // Parse fully validated before the first insert: a corrupt snapshot never
  // leaves the cache half-restored. The file lists each shard most recent
  // first and every insert becomes its shard's most recent, so the entries
  // go in last to first and keep their recency.
  for (auto it = loaded.rbegin(); it != loaded.rend(); ++it) {
    cache->Restore(it->first, it->second);
  }
  obs::MetricsRegistry::Global().counter("serve.snapshot.loaded")->Add(1);
  return static_cast<int>(loaded.size());
}

}  // namespace memo::serve
