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
/// payload, then the payload itself, every field little-endian
/// (common/file_io.h). The payload's second f64 series (per-step gradient
/// norms) is written empty and skipped on read, keeping the layout that
/// existing files have.
constexpr char kMagic[8] = {'M', 'E', 'M', 'O', 'C', 'K', 'P', '1'};
constexpr const char* kSuffix = ".memockpt";

void PutDoubles(ByteWriter* out, const std::vector<double>& v) {
  out->I64(static_cast<std::int64_t>(v.size()));
  out->F64s(v.data(), v.size());
}

void PutTensors(ByteWriter* out, const std::vector<Tensor>& tensors) {
  out->I64(static_cast<std::int64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    out->I64(t.rows());
    out->I64(t.cols());
    out->F32s(t.data(), static_cast<std::size_t>(t.size()));
  }
}

/// An i64 element count, which must be non-negative and fit in the bytes
/// left at `element_bytes` each.
Status GetCount(ByteReader* in, std::size_t element_bytes,
                std::int64_t* count) {
  MEMO_RETURN_IF_ERROR(in->I64(count));
  if (*count < 0) return in->Error("negative count");
  return in->CheckCount(static_cast<std::uint64_t>(*count), element_bytes);
}

Status GetDoubles(ByteReader* in, std::vector<double>* out) {
  std::int64_t n = 0;
  MEMO_RETURN_IF_ERROR(GetCount(in, 8, &n));
  out->resize(static_cast<std::size_t>(n));
  return in->F64s(out->data(), out->size());
}

Status GetTensors(ByteReader* in, std::vector<Tensor>* out) {
  // Each tensor holds at least its two shape fields.
  std::int64_t n = 0;
  MEMO_RETURN_IF_ERROR(GetCount(in, 16, &n));
  out->clear();
  out->reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    // rows x cols floats must fit in the bytes left: a row of `cols`
    // floats does once `cols` alone does, and `rows` such rows are checked
    // as a count of them.
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    MEMO_RETURN_IF_ERROR(in->I64(&rows));
    MEMO_RETURN_IF_ERROR(GetCount(in, 4, &cols));
    if (rows < 0) return in->Error("negative tensor rows");
    MEMO_RETURN_IF_ERROR(in->CheckCount(static_cast<std::uint64_t>(rows),
                                        4 * static_cast<std::size_t>(cols)));
    Tensor t(rows, cols);
    MEMO_RETURN_IF_ERROR(in->F32s(t.data(), static_cast<std::size_t>(t.size())));
    out->push_back(std::move(t));
  }
  return OkStatus();
}

std::string Serialize(const CheckpointState& state) {
  std::string payload;
  ByteWriter out(&payload);
  out.U64(state.config_fingerprint);
  out.I64(state.step);
  out.U64(state.data_rng_state);
  out.I64(state.last_token);
  out.I64(state.adam_step);
  out.I64(state.degraded ? 1 : 0);
  PutDoubles(&out, state.losses);
  PutDoubles(&out, {});
  PutTensors(&out, state.params);
  PutTensors(&out, state.adam_m);
  PutTensors(&out, state.adam_v);
  return payload;
}

StatusOr<CheckpointState> Deserialize(std::string_view payload,
                                      const std::string& path) {
  ByteReader in(payload, StatusCode::kInternal, "corrupt checkpoint " + path);
  CheckpointState state;
  std::int64_t degraded = 0;
  MEMO_RETURN_IF_ERROR(in.U64(&state.config_fingerprint));
  MEMO_RETURN_IF_ERROR(in.I64(&state.step));
  MEMO_RETURN_IF_ERROR(in.U64(&state.data_rng_state));
  MEMO_RETURN_IF_ERROR(in.I64(&state.last_token));
  MEMO_RETURN_IF_ERROR(in.I64(&state.adam_step));
  MEMO_RETURN_IF_ERROR(in.I64(&degraded));
  state.degraded = degraded != 0;
  std::vector<double> grad_norms;
  MEMO_RETURN_IF_ERROR(GetDoubles(&in, &state.losses));
  MEMO_RETURN_IF_ERROR(GetDoubles(&in, &grad_norms));
  MEMO_RETURN_IF_ERROR(GetTensors(&in, &state.params));
  MEMO_RETURN_IF_ERROR(GetTensors(&in, &state.adam_m));
  MEMO_RETURN_IF_ERROR(GetTensors(&in, &state.adam_v));
  if (!in.AtEnd()) return in.Error("trailing bytes in payload");
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
  ByteWriter out(&file);
  out.Bytes({kMagic, sizeof(kMagic)});
  out.U64(static_cast<std::uint64_t>(payload.size()));
  out.U64(Fnv1a64(payload));
  out.Bytes(payload);

  MEMO_RETURN_IF_ERROR(
      WriteWholeFile(dir + "/" + CheckpointFileName(state.step), file,
                     "checkpoint", WriteMode::kAtomic));
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
  ByteReader in(std::string_view(file).substr(sizeof(kMagic)),
                StatusCode::kInternal, "checkpoint " + path);
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  MEMO_RETURN_IF_ERROR(in.U64(&payload_size));
  MEMO_RETURN_IF_ERROR(in.U64(&checksum));
  if (payload_size != in.remaining()) {
    return InternalError("truncated checkpoint file: " + path);
  }
  const std::string_view payload =
      std::string_view(file).substr(sizeof(kMagic) + 16);
  if (Fnv1a64(payload) != checksum) {
    return InternalError("checkpoint checksum mismatch (corrupt file): " +
                         path);
  }
  return Deserialize(payload, path);
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
