#include "common/units.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace memo {

namespace {

std::string FormatWithSuffix(double value, const char* suffix) {
  char buf[64];
  if (value >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", value, suffix);
  } else if (value >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%.1f%s", value, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  }
  return buf;
}

}  // namespace

std::string FormatBytes(std::int64_t bytes) {
  const bool negative = bytes < 0;
  const double b = std::abs(static_cast<double>(bytes));
  std::string out;
  if (b >= static_cast<double>(kTiB)) {
    out = FormatWithSuffix(b / static_cast<double>(kTiB), "TiB");
  } else if (b >= static_cast<double>(kGiB)) {
    out = FormatWithSuffix(b / static_cast<double>(kGiB), "GiB");
  } else if (b >= static_cast<double>(kMiB)) {
    out = FormatWithSuffix(b / static_cast<double>(kMiB), "MiB");
  } else if (b >= static_cast<double>(kKiB)) {
    out = FormatWithSuffix(b / static_cast<double>(kKiB), "KiB");
  } else {
    out = FormatWithSuffix(b, "B");
  }
  return negative ? "-" + out : out;
}

std::string FormatSeconds(double seconds) {
  const double s = std::abs(seconds);
  std::string out;
  if (s >= 1.0) {
    out = FormatWithSuffix(s, "s");
  } else if (s >= 1e-3) {
    out = FormatWithSuffix(s * 1e3, "ms");
  } else if (s >= 1e-6) {
    out = FormatWithSuffix(s * 1e6, "us");
  } else {
    out = FormatWithSuffix(s * 1e9, "ns");
  }
  return seconds < 0 ? "-" + out : out;
}

std::string FormatSeqLen(std::int64_t tokens) {
  char buf[32];
  if (tokens % kSeqK == 0) {
    std::snprintf(buf, sizeof(buf), "%lldK",
                  static_cast<long long>(tokens / kSeqK));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(tokens));
  }
  return buf;
}

bool ParseSeqLen(std::string_view text, std::int64_t* tokens) {
  std::int64_t scale = 1;
  if (!text.empty() && (text.back() == 'K' || text.back() == 'k')) {
    scale = kSeqK;
    text.remove_suffix(1);
  }
  // from_chars would take a leading '-'; a length has no sign.
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  std::int64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() ||
      value > std::numeric_limits<std::int64_t>::max() / scale) {
    return false;
  }
  *tokens = value * scale;
  return true;
}

}  // namespace memo
