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

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Bounds-checked little-endian reader over the loaded file bytes.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  bool ReadU32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadBytes(std::uint32_t len, std::string* out) {
    if (pos_ + len > data_.size()) return false;
    out->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

  std::size_t pos() const { return pos_; }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<int> SaveCacheSnapshot(const std::string& path,
                                const PlanCache& cache) {
  MEMO_RETURN_IF_ERROR(
      FaultInjector::Global().MaybeFail("serve.snapshot_write"));
  const auto entries = cache.Entries();

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendU32(&file, kVersion);
  AppendU32(&file, static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    const CachedPlan& plan = *entry.second;
    AppendU64(&file, entry.first);
    AppendU32(&file, static_cast<std::uint32_t>(plan.result.kind));
    AppendU32(&file, static_cast<std::uint32_t>(plan.result.status.code()));
    const std::string& msg = plan.result.status.message();
    AppendU32(&file, static_cast<std::uint32_t>(msg.size()));
    file += msg;
    AppendU32(&file, static_cast<std::uint32_t>(plan.payload.size()));
    file += plan.payload;
  }
  AppendU64(&file, Fnv1a64(file.data(), file.size()));

  MEMO_RETURN_IF_ERROR(WriteFileAtomically(path, file, "snapshot"));
  obs::MetricsRegistry::Global().counter("serve.snapshot.saved")->Add(1);
  return static_cast<int>(entries.size());
}

StatusOr<int> LoadCacheSnapshot(const std::string& path, PlanCache* cache) {
  MEMO_RETURN_IF_ERROR(
      FaultInjector::Global().MaybeFail("serve.snapshot_read"));
  MEMO_ASSIGN_OR_RETURN(const std::string data,
                        ReadWholeFile(path, "snapshot"));
  if (data.size() < sizeof(kMagic) + 4 + 4 + 8 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("snapshot " + path +
                                ": bad magic or truncated header");
  }
  // Verify the footer checksum over everything before it FIRST: every later
  // parse step may then trust the bytes.
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data[data.size() - 8 + i]))
              << (8 * i);
  }
  const std::uint64_t actual = Fnv1a64(data.data(), data.size() - 8);
  if (stored != actual) {
    return InvalidArgumentError("snapshot " + path +
                                ": checksum mismatch (corrupt file)");
  }

  Reader body(data);
  std::string skip;
  body.ReadBytes(sizeof(kMagic), &skip);  // magic was memcmp'd above
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  if (!body.ReadU32(&version) || version != kVersion) {
    return InvalidArgumentError("snapshot " + path +
                                ": unsupported version " +
                                std::to_string(version));
  }
  if (!body.ReadU32(&count)) {
    return InvalidArgumentError("snapshot " + path + ": truncated header");
  }

  std::vector<std::pair<std::uint64_t, std::shared_ptr<CachedPlan>>> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t fingerprint = 0;
    std::uint32_t kind = 0;
    std::uint32_t code = 0;
    std::uint32_t len = 0;
    auto plan = std::make_shared<CachedPlan>();
    std::string message;
    if (!body.ReadU64(&fingerprint) || !body.ReadU32(&kind) ||
        !body.ReadU32(&code) || !body.ReadU32(&len) ||
        !body.ReadBytes(len, &message) || !body.ReadU32(&len) ||
        !body.ReadBytes(len, &plan->payload) ||
        body.pos() > data.size() - 8) {
      return InvalidArgumentError("snapshot " + path + ": truncated entry " +
                                  std::to_string(i));
    }
    plan->result.kind = static_cast<core::PlanQueryKind>(kind);
    plan->result.status =
        code == 0 ? OkStatus()
                  : Status(static_cast<StatusCode>(code), std::move(message));
    loaded.emplace_back(fingerprint, std::move(plan));
  }
  if (body.pos() != data.size() - 8) {
    return InvalidArgumentError("snapshot " + path +
                                ": trailing bytes after last entry");
  }

  // Parse fully validated before the first insert: a corrupt snapshot never
  // leaves the cache half-restored.
  for (auto& entry : loaded) {
    cache->Restore(entry.first, entry.second);
  }
  obs::MetricsRegistry::Global().counter("serve.snapshot.loaded")->Add(1);
  return static_cast<int>(loaded.size());
}

}  // namespace memo::serve
