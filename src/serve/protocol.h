#ifndef MEMO_SERVE_PROTOCOL_H_
#define MEMO_SERVE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/plan_request.h"
#include "obs/json.h"

namespace memo::serve {

/// Wire format: one request per line, one response per line, each a JSON
/// object (newline-delimited JSON over a Unix-domain stream socket), read
/// by ReadJsonObject. A request is flat; a value may be quoted or bare: "8"
/// and 8 read alike.
///
/// Request fields, all optional (memo_cli's planning commands read the same
/// fields from their flags, spelled with '-' for '_'):
///   kind            best | strategy | maxseq              (default best)
///   system          memo | megatron | deepspeed           (default memo)
///   model           Table-2 preset name                   (default 7B)
///   seq             1 to 2^40 tokens, whole or in K ("512K") (default 512K)
///   gpus            1 to 7, or a multiple of 8 up to 2^20  (default 8)
///   host_gib        host RAM per node, > 0          (default 256 per GPU)
///   nvme_gib        NVMe tier per node, >= 0        (default 0 = none)
///   nvme_gbps       NVMe bandwidth per node, > 0    (default 6)
///   tp cp pp vp dp sp zero  strategy degrees and ZeRO stage (integers)
///   full_recompute  bool. These two and the degrees are read for
///                   kind=strategy; a strategy query that omits zero or
///                   full_recompute runs its system's recipe
///                   (parallel::SystemRecipe): deepspeed ZeRO-3 + full
///                   recompute, megatron full recompute, memo neither.
///                   Whether a strategy suits the model and cluster is a
///                   cached solver answer, not a parse error.
///   alpha           forced swap fraction in [0, 1]; absent or -1 = solve
///   alpha_steps     LP grid resolution >= 0, 0 = continuous (default 8)
///   step / cap      maxseq scan step >= 1 and ceiling in [step, 2^40], in
///                   seq syntax (default 128K and gpus x 256K)
/// Unknown keys are ignored. Integers must be whole and fit in 32 bits.
///
/// Response: {"status":"OK","code":0,"fingerprint":"0x...","cache_hit":
/// false,"plan":{...}} — `plan` is the deterministic payload produced by
/// SerializePlanResult (present even for solver-level failures, which are
/// themselves deterministic functions of the request and therefore cached);
/// protocol-level failures (malformed JSON, a field out of its domain) omit
/// it.

/// A request as field name -> value text, before any conversion.
using PlanRequestFields = std::map<std::string, std::string>;

/// One line's top-level JSON object, as ReadJsonObject reads it.
struct JsonObject {
  /// Key -> value text: a string unescaped, a bare token (any text up to
  /// ',', '}' or whitespace) as written, a nested object or array as its
  /// raw text (an answer's "plan" is SerializePlanResult's payload). A
  /// repeated key keeps its last value.
  PlanRequestFields fields;
  /// The keys whose value is a nested object or array, in line order.
  std::vector<std::string> nested;

  /// The value text of `key`, or "" when the object has no such key.
  const std::string& Get(const std::string& key) const;
};

/// The protocol's one JSON reader, for request and answer lines alike.
/// Strings decode exactly the escapes obs::JsonEscape writes (\" \\ \n \t
/// \r \/ and \uXXXX below 0x80) and refuse the rest, so every JsonEscape'd
/// string reads back byte for byte. Bytes after the closing brace are
/// ignored. Returns kInvalidArgument when `line` does not start with such
/// an object; `*out` then holds what was read before the error, including
/// the key of a nested value the error is inside.
Status ReadJsonObject(std::string_view line, JsonObject* out);

/// The one reader of planning requests, shared by the wire protocol and
/// memo_cli. Converts every field above, fills in defaults and the strategy
/// recipe, then runs PlanRequest::Validate(). Returns kInvalidArgument for
/// any field that does not convert or is out of its domain; the message
/// starts with that field's name ("gpus must be ..."). On success, a
/// non-null `unknown` receives the keys of `fields` that are not request
/// fields: the wire protocol ignores them, memo_cli refuses them.
StatusOr<core::PlanRequest> ParsePlanRequestFields(
    const PlanRequestFields& fields,
    std::vector<std::string>* unknown = nullptr);

/// A request line ReadJsonObject read into `object` with outcome `read`,
/// handed to ParsePlanRequestFields. The request protocol is flat: a nested
/// value is refused before the read's error and before any field.
StatusOr<core::PlanRequest> ParsePlanRequestObject(const Status& read,
                                                   const JsonObject& object);

/// ReadJsonObject, then ParsePlanRequestObject. Returns kInvalidArgument on
/// malformed JSON too.
StatusOr<core::PlanRequest> ParsePlanRequestJson(const std::string& line);

/// Deterministic serialization of a solve outcome: fixed field order,
/// doubles printed with %.17g (round-trip exact), no whitespace. Equal
/// PlanResults serialize to byte-identical strings — the bit-identity
/// contract for cache hits is stated over this payload.
std::string SerializePlanResult(const core::PlanResult& result);

/// Assembles a full response line (no trailing newline) around a payload.
std::string BuildResponseLine(const Status& status, std::uint64_t fingerprint,
                              bool cache_hit, const std::string& payload);

/// Response for requests that failed before reaching the solver (parse
/// errors, shedding): status + numeric code + a `retryable` bool so clients
/// can re-send shed requests mechanically without matching code values.
/// UNAVAILABLE and DEADLINE_EXCEEDED are retryable (the request was shed or
/// timed out, never answered); parse errors are not.
std::string BuildErrorResponseLine(const Status& status);

/// Point-in-time server state for the `health` protocol request: the bare
/// line `health`, or any object ReadJsonObject reads with kind "health"
/// (`{ "kind" : "health" }` included). Health answers never consult the
/// solver and are not counted against a --max-requests budget.
struct HealthSnapshot {
  bool draining = false;
  int connections = 0;
  int queue_depth = 0;
  std::int64_t requests_served = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_resident_bytes = 0;
};

/// {"status":"OK","code":0,"health":{"state":"serving"|"draining",...}}
std::string BuildHealthResponseLine(const HealthSnapshot& health);

/// Escapes `"`, `\` and control characters for embedding in JSON (the one
/// escaper, obs/json.h, under the name the plan clients call).
using obs::JsonEscape;

}  // namespace memo::serve

#endif  // MEMO_SERVE_PROTOCOL_H_
