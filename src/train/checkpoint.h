#ifndef MEMO_TRAIN_CHECKPOINT_H_
#define MEMO_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "train/tensor.h"

namespace memo::train {

/// Everything RunTraining needs to continue a run as if it had never
/// stopped: weights, Adam moments and step count, the synthetic-data
/// stream position, and the per-iteration series produced so far. A run
/// resumed from this state produces a loss curve bit-identical to the
/// uninterrupted run (the numeric stack is deterministic and the RNG state
/// replays the exact remaining token stream).
struct CheckpointState {
  /// FNV-1a fingerprint of the run configuration (model dims, seed, policy,
  /// alpha, iterations, ...). A resume against a different configuration
  /// is rejected instead of silently diverging.
  std::uint64_t config_fingerprint = 0;
  /// Training iterations completed when the checkpoint was taken.
  std::int64_t step = 0;
  /// SyntheticData stream position (see SyntheticData::RestoreStreamState).
  std::uint64_t data_rng_state = 0;
  std::int64_t last_token = 0;
  /// Adam step counter (moment buffers below; empty before the first step).
  std::int64_t adam_step = 0;
  /// Whether the run had already degraded (lost its disk tier) — sticky
  /// across a resume so the restarted run does not retry a dead device.
  bool degraded = false;
  std::vector<double> losses;  // per-iteration losses so far
  std::vector<Tensor> params;  // MiniGptParams::Flat order
  std::vector<Tensor> adam_m;  // first moments, same order
  std::vector<Tensor> adam_v;  // second moments, same order
};

/// Canonical file name of the checkpoint taken after `step` iterations,
/// e.g. "ckpt_000040.memockpt". Zero-padding keeps lexicographic and
/// numeric order identical.
std::string CheckpointFileName(std::int64_t step);

/// Serializes `state` into `dir` (which must exist) as
/// CheckpointFileName(state.step). The payload is FNV-1a-checksummed and
/// written to a temporary file first, then atomically renamed, so a crash
/// mid-write can never leave a half-written file under the canonical name.
Status SaveCheckpoint(const std::string& dir, const CheckpointState& state);

/// Reads one checkpoint file back. Fails with kInternal on a bad magic,
/// truncation, or checksum mismatch (any flipped byte is caught), and never
/// returns partially-deserialized state.
StatusOr<CheckpointState> LoadCheckpoint(const std::string& path);

/// Checkpoint files in `dir`, sorted by step ascending. Missing or empty
/// directories yield an empty list.
std::vector<std::string> ListCheckpoints(const std::string& dir);

/// Loads the newest checkpoint in `dir` whose payload verifies AND whose
/// fingerprint matches, silently falling back to older ones past corrupted
/// or mismatched files. kNotFound when no loadable checkpoint exists.
StatusOr<CheckpointState> LoadLatestValidCheckpoint(
    const std::string& dir, std::uint64_t config_fingerprint);

}  // namespace memo::train

#endif  // MEMO_TRAIN_CHECKPOINT_H_
