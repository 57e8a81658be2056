#ifndef MEMO_COMMON_FINGERPRINT_H_
#define MEMO_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace memo {

/// FNV-1a 64-bit hash of `len` bytes at `data`. The single hashing
/// primitive shared by every fingerprint in the system: disk-tier page
/// checksums, checkpoint config fingerprints, and PlanRequest cache keys.
/// It lives here (not in the offload layer, where it started) so producers
/// do not have to link a storage backend just to hash a config.
std::uint64_t Fnv1a64(const void* data, std::size_t len);

inline std::uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// Incremental FNV-1a: feeding a byte stream in any chunking produces the
/// same digest as one Fnv1a64 call over the concatenation. Used where the
/// hashed bytes are produced in pieces and never held in memory at once:
/// the trace reader's content fingerprint hashes one decoded record at a
/// time.
class Fnv1aStream {
 public:
  Fnv1aStream& Update(const void* data, std::size_t len);
  Fnv1aStream& Update(std::string_view s) { return Update(s.data(), s.size()); }
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Accumulates a canonical `key=value;` string and hashes it with FNV-1a.
/// Canonical means: a given sequence of Add calls always produces the same
/// bytes on every host — doubles are recorded as their exact IEEE-754 bit
/// pattern (hex), never via locale- or precision-dependent formatting — so
/// two configs fingerprint equal iff every added field is bit-equal.
///
/// The canonical string itself is exposed for debugging and for tests that
/// want to assert which fields feed a fingerprint.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(std::string_view key, std::int64_t value);
  FingerprintBuilder& Add(std::string_view key, std::uint64_t value);
  FingerprintBuilder& Add(std::string_view key, int value) {
    return Add(key, static_cast<std::int64_t>(value));
  }
  FingerprintBuilder& Add(std::string_view key, bool value) {
    return Add(key, static_cast<std::int64_t>(value ? 1 : 0));
  }
  /// Recorded as the exact bit pattern: 0.1 and the nearest double to 0.1
  /// fingerprint identically, 0.1 and 0.1 + 1ulp do not.
  FingerprintBuilder& Add(std::string_view key, double value);
  FingerprintBuilder& Add(std::string_view key, std::string_view value);
  /// Without this overload a string literal would convert to bool, not to
  /// string_view, and every name would hash as "1".
  FingerprintBuilder& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }

  const std::string& canonical() const { return canon_; }
  std::uint64_t Fingerprint() const { return Fnv1a64(canon_); }

 private:
  std::string canon_;
};

}  // namespace memo

#endif  // MEMO_COMMON_FINGERPRINT_H_
