#ifndef MEMO_TRAIN_ACTIVATION_STORE_H_
#define MEMO_TRAIN_ACTIVATION_STORE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "offload/stash_backend.h"
#include "train/tensor.h"

namespace memo::train {

/// The skeletal activations of one transformer layer of the mini-GPT
/// (the numeric counterpart of Fig. 5).
struct LayerActivations {
  Tensor input;      // always offloaded in full (tensor-level rule, §4.1)
  Tensor ln1_out;    // token-wise
  Tensor ln1_rstd;   // token-wise (per-row statistic)
  Tensor q, k, v;    // token-wise
  Tensor attn_out;   // always offloaded in full (tensor-level rule, §4.1)
  Tensor proj_out;   // token-wise
  Tensor ln2_out;    // token-wise
  Tensor ln2_rstd;   // token-wise
  Tensor fc1_out;    // token-wise
  Tensor gelu_out;   // token-wise
};

/// Per-layer parameters needed to recompute discarded token rows.
struct LayerParams {
  Tensor ln1_g, ln1_b;
  Tensor wq, wk, wv;   // [h, h]
  Tensor wo;           // [h, h]
  Tensor ln2_g, ln2_b;
  Tensor w1, b1;       // [h, ffn], [1, ffn]
  Tensor w2, b2;       // [ffn, h], [1, h]
};

/// How skeletal activations are managed between a layer's forward and
/// backward passes.
enum class ActivationPolicy {
  /// Baseline (Megatron-like retention): keep every tensor as produced.
  kRetainAll,
  /// MEMO §4.1: the layer input and attention output are kept ("offloaded")
  /// in full; of every other tensor only the first round(alpha * s) token
  /// rows are kept, and the remaining rows are recomputed from the stored
  /// input and attention output before the backward pass.
  kTokenWise,
};

/// Copier and disk-lane measurements: how much transfer work ran, and how
/// long the compute thread was blocked on it. The CPU counterpart of the
/// paper's offload/prefetch/spill stream utilisation, extended with
/// per-tier counters of the stash backend (RAM tier and NVMe-analog disk
/// tier).
struct OffloadStats {
  /// Wall time the copier and the disk lane spent moving bytes, summed over
  /// both lanes (the waits below are hidden behind either).
  double copier_busy_seconds = 0.0;
  double stash_wait_seconds = 0.0;    // compute blocked on a full buffer pair
  double restore_wait_seconds = 0.0;  // compute blocked on offload/prefetch
  std::int64_t offloaded_bytes = 0;   // D2H-analog bytes copied to the stash
  std::int64_t prefetched_bytes = 0;  // H2D-analog bytes copied back
  /// Host-staging buffers allocated: blob buffers and restore sets (see
  /// HostStaging). A run allocates them all in its first iteration.
  std::int64_t staging_allocations = 0;

  /// Where the stashed bytes landed: host RAM vs the disk spill tier
  /// (both zero for retain-all, disk zero for the pure-RAM backend).
  offload::TierStats ram_tier;
  offload::TierStats disk_tier;

  /// Fraction of the copier's transfer time hidden behind compute: 1.0 when
  /// the compute thread never waited, 0.0 when every copied second stalled
  /// it. With no transfers at all there is nothing to hide, so 1.0.
  double overlap_efficiency() const {
    if (copier_busy_seconds <= 0.0) return 1.0;
    const double waits = stash_wait_seconds + restore_wait_seconds;
    return std::max(0.0, 1.0 - waits / copier_busy_seconds);
  }

  OffloadStats& operator+=(const OffloadStats& o) {
    copier_busy_seconds += o.copier_busy_seconds;
    stash_wait_seconds += o.stash_wait_seconds;
    restore_wait_seconds += o.restore_wait_seconds;
    offloaded_bytes += o.offloaded_bytes;
    prefetched_bytes += o.prefetched_bytes;
    staging_allocations += o.staging_allocations;
    ram_tier += o.ram_tier;
    disk_tier += o.disk_tier;
    return *this;
  }
};

/// Host memory a store stages transfers in, recycled from one micro-step's
/// store to the next: serialized blob buffers, and the full-size restore
/// sets an async store's copier fills for backward. The training run owns
/// one, outside the arena scope, so only its first iteration allocates
/// staging (OffloadStats::staging_allocations). One store uses a staging
/// at a time; a store built without one keeps its own.
struct HostStaging {
  std::vector<std::string> blobs;
  std::vector<LayerActivations> restore_sets;
};

/// Implements the token-wise stash/restore cycle on real numbers. In the
/// full system the stash is a PCIe transfer into host memory; here the
/// "host" is a pluggable offload::StashBackend — RAM map, disk spill file,
/// or the tiered RAM-then-disk combination — and the restore runs the same
/// row-wise forward kernels as the original pass, so the reconstruction is
/// bit-identical regardless of the tier the bytes travelled through — the
/// property behind the aligned loss curves of Fig. 12d.
///
/// Under the token-wise policy only the first `layers` − 2 layers swap
/// (model::LayerSwaps): the last two are still in the two rounding buffers
/// when forward ends and are the first two backward reads, so they stay
/// whole on the "device" — never cut, serialized, copied or recomputed.
///
/// With `async_offload` (token-wise policy, at least one swapped layer) a
/// dedicated copier thread mirrors the paper's offload/prefetch streams:
/// Stash hands a swapped layer to the copier, which cuts and serializes it
/// (the D2H-analog copy) while the compute thread runs the next layer.
/// Layer i reuses rounding buffer i % 2, so its Stash blocks until layer
/// i − 2's offload has landed, exactly like the
/// `WaitEvent(compute, offload_done[i-2])` of the three-stream schedule. In
/// backward, Restore(i) queues the prefetch of layer i − 1 (H2D-analog: the
/// blob's rows copied into a full-size restore set), which the copier runs
/// while the compute thread recomputes layer i; the first such prefetch, of
/// layer `layers` − 3, is queued by Restore(`layers` − 2) once the last
/// layer's backward has freed its buffer (`WaitEvent(h2d, bwd_done[i+2])`).
///
/// A backend with a disk tier (kDisk, kTiered) also gets a disk lane, the
/// simulator's `spill` stream: a second thread that runs every Put and Take
/// one at a time. The copier's offload ends when it hands the blob to the
/// lane (offload_done), and at most one blob waits behind the one being
/// written. Once the last swapped layer's Put lands the lane reads the
/// layers back in backward order (spill_read after spill_write_done[i]), at
/// most one layer ahead of the copier, whose prefetch waits for that read
/// (spill_read_done[i]). The handoff copies are exact, so async results are
/// bit-identical to the inline path.
class ActivationStore {
 public:
  /// `layers` is the model's depth; it decides which layers stay in the
  /// rounding buffers (the retain-all policy keeps every layer anyway).
  /// `staging` (optional) is the run's recycled host staging.
  ActivationStore(ActivationPolicy policy, double alpha, int layers,
                  bool async_offload = false,
                  const offload::BackendOptions& backend = {},
                  HostStaging* staging = nullptr);
  ~ActivationStore();

  ActivationStore(const ActivationStore&) = delete;
  ActivationStore& operator=(const ActivationStore&) = delete;

  /// Records layer `layer`'s activations after its forward pass, discarding
  /// token rows according to the policy. Consumes `acts`. Fails with the
  /// backend's Status when the stash rejects the bytes — kOutOfHostMemory
  /// when the RAM tier is full with no disk tier to spill to, kInternal on
  /// disk I/O faults. In async mode a copier- or lane-side failure is
  /// reported by the first Stash/Restore call after it happened.
  /// Double-stashing a layer is still a programming error (aborts).
  Status Stash(int layer, LayerActivations&& acts);

  /// Reconstructs the full activation set for the backward pass of `layer`,
  /// recomputing discarded rows with `params`. Removes the stash entry.
  /// Fails with the backend's Status when the stashed bytes cannot be read
  /// back (checksum mismatch, truncated spill file, injected I/O fault);
  /// the store stays destructible and the spill file is still cleaned up.
  /// An async store restores in backward layer order.
  StatusOr<LayerActivations> Restore(int layer, const LayerParams& params);

  /// Hands back what Restore(`layer`) returned once the layer's backward is
  /// done (bwd_done[layer]): an async store reuses a swapped layer's
  /// tensors as the restore set of layer − 2. Without it they are freed.
  void Recycle(int layer, LayerActivations&& acts);

  /// Bytes currently held on the "CPU side" of the real system: the kept
  /// rows of the swapped layers under token-wise (the two layers in the
  /// rounding buffers are device_peak_bytes(), not host bytes), every
  /// retained layer under retain-all.
  std::int64_t stored_bytes() const;
  /// High-water mark of stored_bytes() (reached at the end of the forward
  /// pass, before backward drains the stash).
  std::int64_t peak_stored_bytes() const;

  /// Peak DEVICE-side activation residency implied by the policy:
  /// kRetainAll keeps every stashed tensor on the accelerator, so this is
  /// peak_stored_bytes(); kTokenWise keeps only the two rounding buffers
  /// (one full layer's activations each), so this is 2x the largest layer.
  /// The ratio between the two policies is the numeric counterpart of the
  /// paper's device-memory saving.
  std::int64_t device_peak_bytes() const;
  /// Token rows recomputed across all Restore calls so far.
  std::int64_t recomputed_rows() const { return recomputed_rows_; }

  /// Copier and disk-lane measurements plus the backend's per-tier
  /// counters.
  OffloadStats offload_stats() const;

  double alpha() const { return alpha_; }
  bool async_offload() const { return copier_.joinable(); }
  /// The stash backend holding token-wise offloaded bytes (never null).
  const offload::StashBackend& backend() const { return *backend_; }

 private:
  struct CopierJob {
    enum class Kind { kOffload, kPrefetch } kind;
    int layer = 0;
    /// kOffload: the layer to swap out; kPrefetch: the restore set to fill.
    LayerActivations acts;
  };
  /// One swapped layer's serialized kept rows on their way into or out of
  /// the backend; layer -1 marks an empty slot.
  struct Blob {
    int layer = -1;
    std::int64_t kept_bytes = 0;  // payload bytes, without the dims
    std::string bytes;
  };
  /// A swapped layer whose blob sits in the backend.
  struct Stashed {
    std::int64_t kept_bytes = 0;
    std::int64_t blob_bytes = 0;
    bool on_disk = false;
  };

  /// Whether `layer` stays whole on the "device" instead of swapping.
  bool Keeps(int layer) const;
  std::int64_t CutRow(std::int64_t rows) const;
  void CopierMain();
  void LaneMain();
  /// Cuts `acts` to its kept rows and serializes them into a recycled
  /// buffer: the D2H-analog copy. Runs on the copier in async mode, inline
  /// otherwise.
  Blob Serialize(int layer, const LayerActivations& acts);
  /// Puts a blob into the backend (inline, on the copier, or on the disk
  /// lane) and books it where it landed. A failure is recorded in
  /// backend_error_ before it is returned, so compute-side calls observe
  /// copier- and lane-side faults. Caller must hold no locks.
  Status PutBlob(Blob&& blob);
  /// Takes `layer`'s blob out of the backend, a spilled one into a
  /// recycled buffer. Failures are recorded like PutBlob's.
  StatusOr<Blob> TakeBlob(int layer);
  /// The copier's prefetch of `layer` into restore set `set`.
  void RunPrefetch(int layer, LayerActivations&& set);
  /// Async Restore of a swapped layer: waits for the copier's prefetch.
  StatusOr<LayerActivations> TakeStaged(int layer);
  /// Queues the copier's prefetch of `layer` unless it is not a swapped
  /// layer. Caller holds mu_ (QueuePrefetchLocked).
  void QueuePrefetch(int layer);
  void QueuePrefetchLocked(int layer);
  // Staging and error bookkeeping; callers hold mu_.
  /// Tops the staging up to what the async pipeline holds at once: two
  /// blob buffers (a disk lane's two: the one on the disk and the one
  /// beside it) and two restore sets (layer i's in backward and layer
  /// i − 1's being filled), shaped like `acts`. Runs on the compute thread
  /// at a store's first swapped Stash, off the step arena, so a run makes
  /// its staging in one place, in its first step.
  void ReserveStagingLocked(const LayerActivations& acts);
  std::string AcquireBlob(std::int64_t bytes);
  void ReleaseBlob(std::string&& bytes);
  void RecordErrorLocked(const char* instant, const Status& st);

  ActivationPolicy policy_;
  double alpha_;
  int layers_;
  bool async_ = false;
  bool lane_enabled_ = false;  // async with a disk tier

  /// Token-wise stash storage: RAM, disk, or tiered (see BackendOptions).
  std::unique_ptr<offload::StashBackend> backend_;
  /// Whole-operation retry around backend Put/Take (BackendOptions.retry).
  /// Safe because a failed Put/Take leaves both the blob and the backend
  /// unchanged, so re-attempting the full operation cannot lose data.
  RetryPolicy retry_;
  HostStaging own_staging_;
  HostStaging* staging_;  // the run's, or own_staging_

  // Guards bookkeeping, staging and stats; every thread takes it briefly
  // around handoffs, never while copying or doing I/O.
  mutable std::mutex mu_;
  std::condition_variable stash_ready_;  // copier -> compute: layer staged
  std::condition_variable buffer_free_;  // copier -> compute: slot freed
  std::condition_variable copier_wake_;  // job queued, or lane progress
  std::condition_variable lane_wake_;    // blob handed off, or read taken
  std::deque<CopierJob> jobs_;
  std::unordered_set<int> inflight_offloads_;  // queued + in-copy (<= 2)
  bool shutdown_ = false;

  // Disk lane: the blob waiting behind the one being written, the writes
  // landed so far, and the read-back waiting for the copier.
  Blob pending_write_;
  int writes_landed_ = 0;
  Blob read_ready_;
  // Swapped layers handed to the copier, and the next one to prefetch.
  int swaps_stashed_ = 0;
  int next_prefetch_ = -1;

  // Prefetch handoff: at most one restore set staged ahead of Restore.
  int prefetch_inflight_layer_ = -1;  // queued or copying; -1 = none
  int prefetch_ready_layer_ = -1;     // slot below is valid; -1 = empty
  LayerActivations prefetch_slot_;
  Status prefetch_status_;  // failure that produced an empty slot

  /// First backend failure observed on any thread (sticky; surfaced by
  /// every later Stash/Restore so the trainer can stop cleanly).
  Status backend_error_;

  /// Layers kept whole on the "device" (all of them under retain-all, the
  /// last two under token-wise): they never cross a host tier, so they stay
  /// in this map instead of the backend.
  std::unordered_map<int, LayerActivations> retained_;
  /// Swapped layers currently resident in the backend.
  std::unordered_map<int, Stashed> stashed_;
  std::int64_t stored_bytes_ = 0;
  std::int64_t peak_stored_bytes_ = 0;
  std::int64_t device_peak_bytes_ = 0;
  std::int64_t recomputed_rows_ = 0;  // compute thread only
  OffloadStats stats_;

  std::thread copier_;
  std::thread lane_;
};

}  // namespace memo::train

#endif  // MEMO_TRAIN_ACTIVATION_STORE_H_
