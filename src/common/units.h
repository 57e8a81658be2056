#ifndef MEMO_COMMON_UNITS_H_
#define MEMO_COMMON_UNITS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace memo {

/// Simulated time is kept in double seconds; byte quantities in int64.
/// These helpers keep unit conversions explicit and greppable.

inline constexpr std::int64_t kKiB = std::int64_t{1} << 10;
inline constexpr std::int64_t kMiB = std::int64_t{1} << 20;
inline constexpr std::int64_t kGiB = std::int64_t{1} << 30;
inline constexpr std::int64_t kTiB = std::int64_t{1} << 40;

inline constexpr double kMicro = 1e-6;
inline constexpr double kMilli = 1e-3;

/// 1 TFLOP/s in FLOP/s.
inline constexpr double kTeraFlops = 1e12;
/// 1 GB/s in bytes/s (decimal, as link vendors quote bandwidth).
inline constexpr double kGBps = 1e9;

/// Sequence-length shorthand matching the paper's "64K ... 1408K" columns
/// (K = 1024 tokens).
inline constexpr std::int64_t kSeqK = 1024;

/// Formats a byte count with a binary-unit suffix, e.g. "1.50GiB".
std::string FormatBytes(std::int64_t bytes);

/// Formats seconds with an adaptive unit, e.g. "12.3ms", "4.56s".
std::string FormatSeconds(double seconds);

/// Formats a sequence length the way the paper writes it: "64K", "1024K".
std::string FormatSeqLen(std::int64_t tokens);

/// Parses what FormatSeqLen writes: a whole token count ("65536") or a
/// whole number of K ("64K", "64k"). Rejects signs, fractions ("1.5K"),
/// exponents and counts past int64. Returns false without touching
/// `tokens` on a rejected text.
bool ParseSeqLen(std::string_view text, std::int64_t* tokens);

/// Rounds `value` up to the nearest multiple of `alignment` (> 0).
constexpr std::int64_t AlignUp(std::int64_t value, std::int64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// Integer ceiling division for non-negative values.
constexpr std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace memo

#endif  // MEMO_COMMON_UNITS_H_
