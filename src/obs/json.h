#ifndef MEMO_OBS_JSON_H_
#define MEMO_OBS_JSON_H_

#include <string>
#include <string_view>

namespace memo::obs {

/// Appends `s` to `*out` as the body of a JSON string literal: `"` and `\`
/// escaped, newline, tab and carriage return as `\n`, `\t` and `\r`, and
/// every other byte below 0x20 as `\u00XX`, so any input yields valid JSON.
/// Bytes from 0x20 up pass through unchanged. The one escaper of every JSON
/// writer in the repository (traces, metrics, the plan protocol, trace
/// conversion and replay summaries).
void AppendJsonEscaped(std::string_view s, std::string* out);

/// AppendJsonEscaped into a fresh string.
std::string JsonEscape(std::string_view s);

}  // namespace memo::obs

#endif  // MEMO_OBS_JSON_H_
