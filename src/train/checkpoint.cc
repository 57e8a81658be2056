#include "train/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/file_io.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo::train {

namespace {

/// File layout: magic, payload byte count, FNV-1a 64 checksum of the
/// payload, then the payload itself. Everything is little-endian host
/// representation (the repo targets a single host; checkpoints are not a
/// cross-machine interchange format).
constexpr char kMagic[8] = {'M', 'E', 'M', 'O', 'C', 'K', 'P', '1'};
constexpr const char* kSuffix = ".memockpt";

void AppendRaw(std::string* out, const void* data, std::size_t len) {
  out->append(reinterpret_cast<const char*>(data), len);
}

void AppendI64(std::string* out, std::int64_t v) { AppendRaw(out, &v, 8); }
void AppendU64(std::string* out, std::uint64_t v) { AppendRaw(out, &v, 8); }

void AppendDoubles(std::string* out, const std::vector<double>& v) {
  AppendI64(out, static_cast<std::int64_t>(v.size()));
  AppendRaw(out, v.data(), 8 * v.size());
}

void AppendTensors(std::string* out, const std::vector<Tensor>& tensors) {
  AppendI64(out, static_cast<std::int64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    AppendI64(out, t.rows());
    AppendI64(out, t.cols());
    AppendRaw(out, t.data(), static_cast<std::size_t>(4 * t.size()));
  }
}

/// Bounds-checked sequential reader over the verified payload.
class Reader {
 public:
  explicit Reader(const std::string& payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  Status ReadRaw(void* out, std::size_t len) {
    if (static_cast<std::size_t>(end_ - p_) < len) {
      return InternalError("truncated checkpoint payload");
    }
    // An empty vector's data() may be null, which memcpy must not see.
    if (len == 0) return OkStatus();
    std::memcpy(out, p_, len);
    p_ += len;
    return OkStatus();
  }

  StatusOr<std::int64_t> ReadI64() {
    std::int64_t v = 0;
    MEMO_RETURN_IF_ERROR(ReadRaw(&v, 8));
    return v;
  }

  StatusOr<std::uint64_t> ReadU64() {
    std::uint64_t v = 0;
    MEMO_RETURN_IF_ERROR(ReadRaw(&v, 8));
    return v;
  }

  Status ReadDoubles(std::vector<double>* out) {
    MEMO_ASSIGN_OR_RETURN(const std::int64_t n, ReadI64());
    if (n < 0 || n > (end_ - p_) / 8) {
      return InternalError("corrupt checkpoint: bad series length");
    }
    out->resize(static_cast<std::size_t>(n));
    return ReadRaw(out->data(), 8 * static_cast<std::size_t>(n));
  }

  Status ReadTensors(std::vector<Tensor>* out) {
    MEMO_ASSIGN_OR_RETURN(const std::int64_t n, ReadI64());
    if (n < 0 || n > end_ - p_) {
      return InternalError("corrupt checkpoint: bad tensor count");
    }
    out->clear();
    out->reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      MEMO_ASSIGN_OR_RETURN(const std::int64_t rows, ReadI64());
      MEMO_ASSIGN_OR_RETURN(const std::int64_t cols, ReadI64());
      if (rows < 0 || cols < 0 || (cols > 0 && rows > (end_ - p_) / 4 / cols)) {
        return InternalError("corrupt checkpoint: bad tensor shape");
      }
      Tensor t(rows, cols);
      MEMO_RETURN_IF_ERROR(
          ReadRaw(t.data(), static_cast<std::size_t>(4 * t.size())));
      out->push_back(std::move(t));
    }
    return OkStatus();
  }

  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

std::string Serialize(const CheckpointState& state) {
  std::string payload;
  AppendU64(&payload, state.config_fingerprint);
  AppendI64(&payload, state.step);
  AppendU64(&payload, state.data_rng_state);
  AppendI64(&payload, state.last_token);
  AppendI64(&payload, state.adam_step);
  AppendI64(&payload, state.degraded ? 1 : 0);
  AppendDoubles(&payload, state.losses);
  AppendDoubles(&payload, state.grad_norms);
  AppendTensors(&payload, state.params);
  AppendTensors(&payload, state.adam_m);
  AppendTensors(&payload, state.adam_v);
  return payload;
}

StatusOr<CheckpointState> Deserialize(const std::string& payload) {
  Reader reader(payload);
  CheckpointState state;
  MEMO_ASSIGN_OR_RETURN(state.config_fingerprint, reader.ReadU64());
  MEMO_ASSIGN_OR_RETURN(state.step, reader.ReadI64());
  MEMO_ASSIGN_OR_RETURN(state.data_rng_state, reader.ReadU64());
  MEMO_ASSIGN_OR_RETURN(state.last_token, reader.ReadI64());
  MEMO_ASSIGN_OR_RETURN(state.adam_step, reader.ReadI64());
  MEMO_ASSIGN_OR_RETURN(const std::int64_t degraded, reader.ReadI64());
  state.degraded = degraded != 0;
  MEMO_RETURN_IF_ERROR(reader.ReadDoubles(&state.losses));
  MEMO_RETURN_IF_ERROR(reader.ReadDoubles(&state.grad_norms));
  MEMO_RETURN_IF_ERROR(reader.ReadTensors(&state.params));
  MEMO_RETURN_IF_ERROR(reader.ReadTensors(&state.adam_m));
  MEMO_RETURN_IF_ERROR(reader.ReadTensors(&state.adam_v));
  if (!reader.AtEnd()) {
    return InternalError("corrupt checkpoint: trailing bytes in payload");
  }
  return state;
}

/// Step encoded in a checkpoint file name, or -1 when the name does not
/// match the canonical pattern.
std::int64_t StepOfFileName(const std::string& name) {
  const std::string prefix = "ckpt_";
  if (name.size() <= prefix.size() + std::strlen(kSuffix)) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix),
                   kSuffix) != 0) {
    return -1;
  }
  const std::string digits = name.substr(
      prefix.size(), name.size() - prefix.size() - std::strlen(kSuffix));
  if (digits.empty()) return -1;
  std::int64_t step = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    step = step * 10 + (c - '0');
  }
  return step;
}

}  // namespace

std::string CheckpointFileName(std::int64_t step) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt_%06lld%s",
                static_cast<long long>(step), kSuffix);
  return buf;
}

Status SaveCheckpoint(const std::string& dir, const CheckpointState& state) {
  MEMO_TRACE_SCOPE_ARG("checkpoint_save", "fault", "step", state.step);
  const std::string payload = Serialize(state);
  std::string file;
  file.reserve(sizeof(kMagic) + 16 + payload.size());
  file.append(kMagic, sizeof(kMagic));
  AppendU64(&file, static_cast<std::uint64_t>(payload.size()));
  AppendU64(&file, Fnv1a64(payload.data(), payload.size()));
  file += payload;

  MEMO_RETURN_IF_ERROR(WriteFileAtomically(
      dir + "/" + CheckpointFileName(state.step), file, "checkpoint"));
  obs::MetricsRegistry::Global().counter("checkpoint.saved")->Add(1);
  return OkStatus();
}

StatusOr<CheckpointState> LoadCheckpoint(const std::string& path) {
  MEMO_ASSIGN_OR_RETURN(const std::string file,
                        ReadWholeFile(path, "checkpoint"));
  if (file.size() < sizeof(kMagic) + 16 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return InternalError("not a checkpoint file (bad magic): " + path);
  }
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&payload_size, file.data() + sizeof(kMagic), 8);
  std::memcpy(&checksum, file.data() + sizeof(kMagic) + 8, 8);
  if (file.size() != sizeof(kMagic) + 16 + payload_size) {
    return InternalError("truncated checkpoint file: " + path);
  }
  const std::string payload = file.substr(sizeof(kMagic) + 16);
  if (Fnv1a64(payload.data(), payload.size()) != checksum) {
    return InternalError("checkpoint checksum mismatch (corrupt file): " +
                         path);
  }
  return Deserialize(payload);
}

std::vector<std::string> ListCheckpoints(const std::string& dir) {
  std::vector<std::pair<std::int64_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return {};
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const std::int64_t step = StepOfFileName(name);
    if (step >= 0) found.emplace_back(step, dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [step, path] : found) paths.push_back(std::move(path));
  return paths;
}

StatusOr<CheckpointState> LoadLatestValidCheckpoint(
    const std::string& dir, std::uint64_t config_fingerprint) {
  const std::vector<std::string> paths = ListCheckpoints(dir);
  Status last_error =
      NotFoundError("no checkpoint found in directory " + dir);
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    StatusOr<CheckpointState> state = LoadCheckpoint(*it);
    if (!state.ok()) {
      // Corrupted or truncated: fall back to the next-older checkpoint
      // (the atomic rename means this is a damaged disk, not a torn write).
      obs::MetricsRegistry::Global()
          .counter("checkpoint.load_failures")
          ->Add(1);
      MEMO_TRACE_INSTANT("checkpoint_corrupt", "fault",
                         state.status().ToString());
      last_error = state.status();
      continue;
    }
    if (state.value().config_fingerprint != config_fingerprint) {
      last_error = InternalError(
          "checkpoint " + *it + " was written by a different run "
          "configuration (fingerprint mismatch)");
      continue;
    }
    return state;
  }
  return last_error;
}

}  // namespace memo::train
