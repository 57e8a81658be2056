#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "common/table_printer.h"
#include "common/units.h"
#include "hw/gpu_spec.h"
#include "model/model_config.h"

namespace memo::serve {

namespace {

/// Strict number parse: the whole token must convert, up to its size (a
/// NUL byte inside it is not its end).
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

/// Converts request fields by name and remembers every name it was asked
/// for: the keys it never was are the ones the protocol does not know.
class FieldReader {
 public:
  explicit FieldReader(const PlanRequestFields& fields) : fields_(fields) {}

  /// Converts the field `key` with `convert` when the request has it, and
  /// leaves `*out` alone when it does not. The error names the field first,
  /// as Validate()'s do, and echoes the whole value JSON-escaped.
  template <typename T, typename Convert>
  Status Read(const char* key, const char* expected, Convert convert,
              T* out) {
    asked_.push_back(key);
    const auto it = fields_.find(key);
    if (it == fields_.end() || convert(it->second, out)) return OkStatus();
    return InvalidArgumentError(StrFormat("%s must be %s (got \"%s\")", key,
                                          expected,
                                          JsonEscape(it->second).c_str()));
  }

  /// The keys of the request no Read asked for.
  std::vector<std::string> Unknown() const {
    std::vector<std::string> unknown;
    for (const auto& [key, value] : fields_) {
      if (std::find(asked_.begin(), asked_.end(), key) == asked_.end()) {
        unknown.push_back(key);
      }
    }
    return unknown;
  }

 private:
  const PlanRequestFields& fields_;
  std::vector<std::string_view> asked_;
};

bool ToInt(const std::string& text, int* out) {
  double value = 0.0;
  // NaN is not whole. The range test comes before the cast, which is
  // undefined behaviour out of range.
  if (!ParseDouble(text, &value) || value != std::trunc(value) ||
      !(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ToBool(const std::string& text, bool* out) {
  if (text != "true" && text != "1" && text != "false" && text != "0") {
    return false;
  }
  *out = text == "true" || text == "1";
  return true;
}

/// GiB to bytes; 2^63 itself does not fit, and NaN fails the comparison.
bool ToBytes(const std::string& text, std::int64_t* bytes) {
  double gib = 0.0;
  if (!ParseDouble(text, &gib) ||
      !(std::abs(gib * static_cast<double>(kGiB)) < 0x1p63)) {
    return false;
  }
  *bytes = static_cast<std::int64_t>(gib * static_cast<double>(kGiB));
  return true;
}

/// GB/s to bytes/s.
bool ToBytesPerSecond(const std::string& text, double* out) {
  double gbps = 0.0;
  if (!ParseDouble(text, &gbps)) return false;
  *out = gbps * kGBps;
  return true;
}

bool ToSystem(const std::string& text, parallel::SystemKind* out) {
  if (text == "memo") {
    *out = parallel::SystemKind::kMemo;
  } else if (text == "megatron") {
    *out = parallel::SystemKind::kMegatron;
  } else if (text == "deepspeed") {
    *out = parallel::SystemKind::kDeepSpeed;
  } else {
    return false;
  }
  return true;
}

/// A converter from a name lookup such as model::ModelByName.
template <typename T>
auto ByName(StatusOr<T> (*lookup)(const std::string&)) {
  return [lookup](const std::string& text, T* out) {
    auto found = lookup(text);
    if (found.ok()) *out = *found;
    return found.ok();
  };
}

void AppendField(std::string* out, const char* key, std::int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64 ",", key, value);
  *out += buf;
}

void AppendField(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, value);
  *out += buf;
}

void AppendField(std::string* out, const char* key, bool value) {
  *out += '"';
  *out += key;
  *out += value ? "\":true," : "\":false,";
}

}  // namespace

const std::string& JsonObject::Get(const std::string& key) const {
  static const std::string kAbsent;
  const auto it = fields.find(key);
  return it == fields.end() ? kAbsent : it->second;
}

Status ReadJsonObject(std::string_view json, JsonObject* out) {
  *out = JsonObject{};
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < json.size() &&
           std::isspace(static_cast<unsigned char>(json[i]))) {
      ++i;
    }
  };
  // Reads the string at json[i], decoding the escapes obs::JsonEscape
  // writes and refusing the rest.
  auto parse_string = [&](std::string* s) -> bool {
    if (i >= json.size() || json[i] != '"') return false;
    ++i;
    s->clear();
    while (i < json.size() && json[i] != '"') {
      char c = json[i++];
      if (c == '\\' && i < json.size()) {
        char e = json[i++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            unsigned code = 0;
            const char* hex = json.data() + i;
            if (json.size() - i < 4 ||
                std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
                code >= 0x80) {
              return false;
            }
            i += 4;
            c = static_cast<char>(code);
            break;
          }
          default: return false;
        }
      }
      s->push_back(c);
    }
    if (i >= json.size()) return false;
    ++i;  // closing quote
    return true;
  };
  // Reads the object or array at json[i] as its raw text.
  auto parse_nested = [&](std::string* raw) -> bool {
    const std::size_t start = i;
    std::string closers;  // the brackets still open, innermost last
    std::string skipped;
    while (i < json.size()) {
      const char c = json[i];
      if (c == '"') {
        if (!parse_string(&skipped)) return false;
        continue;
      }
      ++i;
      if (c == '{' || c == '[') {
        closers.push_back(c == '{' ? '}' : ']');
      } else if (c == '}' || c == ']') {
        if (c != closers.back()) return false;
        closers.pop_back();
        if (closers.empty()) {
          raw->assign(json.substr(start, i - start));
          return true;
        }
      }
    }
    return false;
  };

  skip_ws();
  if (i >= json.size() || json[i] != '{') {
    return InvalidArgumentError("request is not a JSON object");
  }
  ++i;
  skip_ws();
  if (i < json.size() && json[i] == '}') return OkStatus();
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(&key)) {
      return InvalidArgumentError("expected a quoted key in request JSON");
    }
    skip_ws();
    if (i >= json.size() || json[i] != ':') {
      return InvalidArgumentError("expected ':' after key \"" + key + "\"");
    }
    ++i;
    skip_ws();
    std::string value;
    if (i < json.size() && json[i] == '"') {
      if (!parse_string(&value)) {
        return InvalidArgumentError("unterminated string for key \"" + key +
                                    "\"");
      }
    } else if (i < json.size() && (json[i] == '{' || json[i] == '[')) {
      out->nested.push_back(key);
      if (!parse_nested(&value)) {
        return InvalidArgumentError("unterminated nested value for key \"" +
                                    key + "\"");
      }
    } else {
      while (i < json.size() && json[i] != ',' && json[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(json[i]))) {
        value.push_back(json[i++]);
      }
      if (value.empty()) {
        return InvalidArgumentError("missing value for key \"" + key + "\"");
      }
    }
    out->fields[key] = std::move(value);
    skip_ws();
    if (i < json.size() && json[i] == ',') {
      ++i;
      continue;
    }
    if (i < json.size() && json[i] == '}') return OkStatus();
    return InvalidArgumentError("expected ',' or '}' in request JSON");
  }
}

StatusOr<core::PlanRequest> ParsePlanRequestFields(
    const PlanRequestFields& fields, std::vector<std::string>* unknown) {
  constexpr const char* kInt = "an integer that fits in 32 bits";
  constexpr const char* kSeq = "a sequence length such as 512K";
  FieldReader in(fields);
  core::PlanRequest request;
  request.model = model::Gpt7B();
  MEMO_RETURN_IF_ERROR(in.Read("kind", "best, strategy or maxseq",
                               ByName(core::PlanQueryKindFromString),
                               &request.kind));
  MEMO_RETURN_IF_ERROR(in.Read("system", "memo, megatron or deepspeed",
                               ToSystem, &request.system));
  MEMO_RETURN_IF_ERROR(in.Read("model", "a model preset such as 7B",
                               ByName(model::ModelByName), &request.model));
  request.seq = 512 * kSeqK;
  MEMO_RETURN_IF_ERROR(in.Read("seq", kSeq, ParseSeqLen, &request.seq));

  int gpus = 8;
  MEMO_RETURN_IF_ERROR(in.Read("gpus", kInt, ToInt, &gpus));
  MEMO_RETURN_IF_ERROR(core::CheckGpuCount(gpus));
  request.cluster = hw::PaperCluster(gpus);
  hw::NodeSpec& node = request.cluster.node;
  constexpr const char* kGiBSize = "a number of GiB that fits in int64 bytes";
  MEMO_RETURN_IF_ERROR(
      in.Read("host_gib", kGiBSize, ToBytes, &node.host_memory_bytes));
  MEMO_RETURN_IF_ERROR(
      in.Read("nvme_gib", kGiBSize, ToBytes, &node.nvme_bytes));
  MEMO_RETURN_IF_ERROR(in.Read("nvme_gbps", "a number", ToBytesPerSecond,
                               &node.nvme_bandwidth));

  // A strategy query runs its system's recipe unless it spells `zero` or
  // `full_recompute` itself.
  parallel::ParallelStrategy& s = request.strategy;
  if (request.kind == core::PlanQueryKind::kStrategy) {
    s = parallel::SystemRecipe(request.system);
  }
  for (const auto& [key, value] :
       {std::pair{"tp", &s.tp}, std::pair{"cp", &s.cp},
        std::pair{"pp", &s.pp}, std::pair{"vp", &s.virtual_pipeline},
        std::pair{"dp", &s.dp}, std::pair{"sp", &s.ulysses_sp},
        std::pair{"zero", &s.zero_stage},
        std::pair{"alpha_steps", &request.alpha_steps}}) {
    MEMO_RETURN_IF_ERROR(in.Read(key, kInt, ToInt, value));
  }
  MEMO_RETURN_IF_ERROR(in.Read("full_recompute", "true or false", ToBool,
                               &s.full_recompute));
  MEMO_RETURN_IF_ERROR(
      in.Read("alpha", "a number", ParseDouble, &request.forced_alpha));

  request.seq_step = 128 * kSeqK;
  request.seq_cap = static_cast<std::int64_t>(gpus) * 256 * kSeqK;
  MEMO_RETURN_IF_ERROR(in.Read("step", kSeq, ParseSeqLen, &request.seq_step));
  MEMO_RETURN_IF_ERROR(in.Read("cap", kSeq, ParseSeqLen, &request.seq_cap));

  MEMO_RETURN_IF_ERROR(request.Validate());
  if (unknown != nullptr) *unknown = in.Unknown();
  return request;
}

StatusOr<core::PlanRequest> ParsePlanRequestObject(const Status& read,
                                                   const JsonObject& object) {
  if (!object.nested.empty()) {
    return InvalidArgumentError("nested values are not supported (key \"" +
                                object.nested.front() + "\")");
  }
  MEMO_RETURN_IF_ERROR(read);
  return ParsePlanRequestFields(object.fields);
}

StatusOr<core::PlanRequest> ParsePlanRequestJson(const std::string& line) {
  JsonObject object;
  const Status read = ReadJsonObject(line, &object);
  return ParsePlanRequestObject(read, object);
}

std::string SerializePlanResult(const core::PlanResult& result) {
  std::string out = "{";
  out += "\"kind\":\"";
  out += core::PlanQueryKindToString(result.kind);
  out += "\",";
  AppendField(&out, "code", static_cast<std::int64_t>(result.status.code()));
  out += "\"status\":\"";
  out += JsonEscape(result.status.ToString());
  out += "\",";
  AppendField(&out, "strategies_tried",
              static_cast<std::int64_t>(result.strategies_tried));
  AppendField(&out, "strategies_feasible",
              static_cast<std::int64_t>(result.strategies_feasible));
  if (result.kind == core::PlanQueryKind::kMaxSeq) {
    AppendField(&out, "max_seq", result.max_seq);
  }
  if (result.status.ok() && result.kind != core::PlanQueryKind::kMaxSeq) {
    const core::IterationResult& it = result.best;
    AppendField(&out, "tp", static_cast<std::int64_t>(it.strategy.tp));
    AppendField(&out, "cp", static_cast<std::int64_t>(it.strategy.cp));
    AppendField(&out, "pp", static_cast<std::int64_t>(it.strategy.pp));
    AppendField(&out, "vp",
                static_cast<std::int64_t>(it.strategy.virtual_pipeline));
    AppendField(&out, "dp", static_cast<std::int64_t>(it.strategy.dp));
    AppendField(&out, "sp",
                static_cast<std::int64_t>(it.strategy.ulysses_sp));
    AppendField(&out, "zero",
                static_cast<std::int64_t>(it.strategy.zero_stage));
    AppendField(&out, "full_recompute", it.strategy.full_recompute);
    AppendField(&out, "iteration_seconds", it.iteration_seconds);
    AppendField(&out, "mfu", it.metrics.mfu);
    AppendField(&out, "tgs", it.metrics.tgs);
    AppendField(&out, "compute_seconds", it.compute_seconds);
    AppendField(&out, "recompute_seconds", it.recompute_seconds);
    AppendField(&out, "exposed_comm_seconds", it.exposed_comm_seconds);
    AppendField(&out, "swap_stall_seconds", it.swap_stall_seconds);
    AppendField(&out, "copy_busy_seconds", it.copy_busy_seconds);
    AppendField(&out, "overlap_efficiency", it.overlap_efficiency);
    AppendField(&out, "peak_device_bytes", it.peak_device_bytes);
    AppendField(&out, "model_state_bytes", it.model_state_bytes);
    AppendField(&out, "activation_peak_bytes", it.activation_peak_bytes);
    AppendField(&out, "host_offload_bytes", it.host_offload_bytes);
    AppendField(&out, "host_ram_bytes", it.host_ram_bytes);
    AppendField(&out, "host_disk_bytes", it.host_disk_bytes);
    AppendField(&out, "alpha", it.alpha);
    AppendField(&out, "alpha_ram", it.alpha_ram);
    AppendField(&out, "alpha_disk", it.alpha_disk);
  }
  if (out.back() == ',') out.pop_back();
  out += '}';
  return out;
}

std::string BuildResponseLine(const Status& status, std::uint64_t fingerprint,
                              bool cache_hit, const std::string& payload) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016" PRIx64, fingerprint);
  std::string out = "{\"status\":\"";
  out += StatusCodeToString(status.code());
  out += "\",";
  AppendField(&out, "code", static_cast<std::int64_t>(status.code()));
  out += "\"fingerprint\":\"";
  out += fp;
  out += "\",";
  AppendField(&out, "cache_hit", cache_hit);
  out += "\"plan\":";
  out += payload;
  out += '}';
  return out;
}

std::string BuildErrorResponseLine(const Status& status) {
  const bool retryable = status.code() == StatusCode::kUnavailable ||
                         status.code() == StatusCode::kDeadlineExceeded;
  std::string out = "{\"status\":\"";
  out += StatusCodeToString(status.code());
  out += "\",";
  AppendField(&out, "code", static_cast<std::int64_t>(status.code()));
  AppendField(&out, "retryable", retryable);
  out += "\"error\":\"";
  out += JsonEscape(status.message());
  out += "\"}";
  return out;
}

std::string BuildHealthResponseLine(const HealthSnapshot& health) {
  std::string out = "{\"status\":\"OK\",";
  AppendField(&out, "code", static_cast<std::int64_t>(StatusCode::kOk));
  out += "\"health\":{\"state\":\"";
  out += health.draining ? "draining" : "serving";
  out += "\",";
  AppendField(&out, "connections",
              static_cast<std::int64_t>(health.connections));
  AppendField(&out, "queue_depth",
              static_cast<std::int64_t>(health.queue_depth));
  AppendField(&out, "requests_served", health.requests_served);
  AppendField(&out, "cache_entries", health.cache_entries);
  AppendField(&out, "cache_hits", health.cache_hits);
  AppendField(&out, "cache_misses", health.cache_misses);
  AppendField(&out, "cache_resident_bytes", health.cache_resident_bytes);
  // AppendField leaves a trailing comma for the next field; close the
  // objects in its place.
  out.back() = '}';
  out += '}';
  return out;
}

}  // namespace memo::serve
