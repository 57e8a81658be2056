#ifndef MEMO_COMMON_RNG_H_
#define MEMO_COMMON_RNG_H_

#include <cstdint>

namespace memo {

/// Deterministic splitmix64-based RNG. Used everywhere a random stream is
/// needed (trace jitter, property-test instance generation, weight init in
/// the numeric trainer) so that every experiment is exactly reproducible
/// from its seed, independent of the platform's std::mt19937 quirks.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + kGamma) {}

  /// Next raw 64-bit value.
  std::uint64_t NextUint64() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Skips `draws` raw values: the stream goes on exactly as it would after
  /// `draws` NextUint64 calls. The state is a counter that every draw steps
  /// by kGamma (mod 2^64), so a copy skipped to draw k yields the k-th
  /// value in O(1) — how a pooled fill draws each element from its own
  /// stream position.
  void Skip(std::uint64_t draws) { state_ += draws * kGamma; }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound) {
    return NextUint64() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box-Muller (used for weight init): two draws per
  /// value.
  double NextGaussian();

  /// Raw splitmix64 state, for checkpointing a stream mid-run. A stream
  /// restored with set_state produces exactly the values the original would
  /// have produced next — the property behind bit-exact training resume.
  std::uint64_t state() const { return state_; }
  void set_state(std::uint64_t state) { state_ = state; }

 private:
  /// splitmix64's increment: 2^64 over the golden ratio, odd.
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  std::uint64_t state_;
};

}  // namespace memo

#endif  // MEMO_COMMON_RNG_H_
