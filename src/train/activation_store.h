#ifndef MEMO_TRAIN_ACTIVATION_STORE_H_
#define MEMO_TRAIN_ACTIVATION_STORE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "model/activation_spec.h"
#include "offload/disk_backend.h"
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
  Tensor attn_lse;   // [s, heads] softmax log-sum-exp; in full with attn_out
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

/// The token-parallel forward ops of one transformer layer over rows
/// [begin, end) of `acts`, whose `input` holds the layer input: ln1, the
/// q/k/v projections, the attention output projection, the first residual
/// add and the fused ln2 -> fc1 -> GELU. Returns the residual sum
/// input + proj_out, written on those rows (its other rows are
/// unspecified). With `heads` > 0 the causal attention over all rows runs
/// between the q/k/v and output projections and fills `attn_out` and
/// `attn_lse`; with 0, both hold what was stashed and the O(s^2) attention
/// does not run. An activation not yet of the layer's shape is allocated
/// without a zero fill, so only its rows [begin, end) hold values on
/// return. The layer forward runs this on every row and a restore on the
/// rows past the cut, so each op being row-wise makes a recomputed row the
/// forward's own, bit for bit.
Tensor LayerForwardRows(const LayerParams& params, int heads,
                        std::int64_t begin, std::int64_t end,
                        LayerActivations* acts);

/// How skeletal activations are managed between a layer's forward and
/// backward passes.
enum class ActivationPolicy {
  /// Baseline (Megatron-like retention): keep every tensor as produced.
  kRetainAll,
  /// MEMO §4.1: the layer input and attention output (with its log-sum-exp)
  /// are kept ("offloaded") in full; of every other tensor only the first
  /// round(alpha * s) token rows are kept, and the remaining rows are
  /// recomputed from the stored input and attention output before the
  /// backward pass.
  kTokenWise,
};

/// Copier and disk-lane measurements: how much transfer work ran, and how
/// long the compute thread was blocked on it. The CPU counterpart of the
/// paper's offload/prefetch/spill stream utilisation, extended with
/// per-tier counters of the stash (RAM tier and NVMe-analog disk tier).
struct OffloadStats {
  /// Wall time the copier and the disk lane spent moving bytes, summed over
  /// both lanes (the waits below are hidden behind either).
  double copier_busy_seconds = 0.0;
  double stash_wait_seconds = 0.0;    // compute blocked on a full buffer pair
  double restore_wait_seconds = 0.0;  // compute blocked on offload/prefetch
  std::int64_t offloaded_bytes = 0;   // D2H-analog bytes copied to the stash
  std::int64_t prefetched_bytes = 0;  // H2D-analog bytes copied back
  /// Host-staging buffers allocated: blob buffers and restore sets, all in
  /// a store's first step (it recycles them in every later one).
  std::int64_t staging_allocations = 0;

  /// Where the stashed bytes landed: host RAM vs the disk spill tier
  /// (both zero for retain-all, disk zero for a RAM-only stash).
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

/// Implements the token-wise stash/restore cycle on real numbers. In the
/// full system the stash is a PCIe transfer into host memory; here the
/// "host" is a RAM tier, a disk spill file, or RAM first and then disk
/// (offload::BackendOptions). The store keeps the RAM tier itself, a blob
/// left in its layer's slot under `ram_capacity_bytes`, and drives an
/// offload::DiskBackend for the disk tier. The restore runs the same
/// row-wise forward kernels as the original pass, so the reconstruction is
/// bit-identical regardless of the tier the bytes travelled through — the
/// property behind the aligned loss curves of Fig. 12d.
///
/// Under the token-wise policy only the first `layers` − 2 layers swap
/// (model::LayerSwaps): the last two are still in the two rounding buffers
/// when forward ends and are the first two backward reads, so they stay
/// whole on the "device" — never cut, serialized, copied or recomputed.
///
/// A swapped layer's transfers are the ops of model::SwapSchedule, the list
/// the simulator enqueues: offload cuts and serializes the layer (the
/// D2H-analog copy), prefetch copies its kept rows into a full-size restore
/// set (H2D), and with a disk tier (kDisk, kTiered) spill_write puts the
/// blob into a tier and spill_read takes it back out; without one, offload
/// and prefetch do the put and the take. Inline, Stash(i) runs layer i's
/// offload ops and Restore(i) its restore ops on the caller. With
/// `async_offload` (token-wise policy, at least one swapped layer) the
/// store runs the whole list instead: the compute thread ends fwd(i) in
/// Stash(i) and bwd(i + 1) in Restore(i), waiting there for what fwd(i)
/// and bwd(i) wait for; a copier thread runs the offload and prefetch ops
/// and, with a disk tier, a disk lane runs the spill ops, each in list
/// order and each op once the ops it waits for are done. The copies are
/// exact, so async results are bit-identical to the inline path.
///
/// One store serves a whole run, as MEMO's rounding buffers and streams
/// serve every iteration: its lanes start with it and run one pass of the
/// list per step, and its staging is made in its first step. An async
/// store begins a step at Stash(0) once the previous step's bwd(0) is due;
/// any other Stash(0) is out of schedule order.
class ActivationStore {
 public:
  /// `layers` is the model's depth; it decides which layers stay in the
  /// rounding buffers (the retain-all policy keeps every layer anyway).
  ActivationStore(ActivationPolicy policy, double alpha, int layers,
                  bool async_offload = false,
                  const offload::BackendOptions& backend = {});
  ~ActivationStore();

  ActivationStore(const ActivationStore&) = delete;
  ActivationStore& operator=(const ActivationStore&) = delete;

  /// Records layer `layer`'s activations after its forward pass, discarding
  /// token rows according to the policy. Consumes `acts`. Fails when the
  /// stash rejects the bytes — kOutOfHostMemory when the RAM tier is full
  /// with no disk tier to spill to, kInternal on disk I/O faults. In async
  /// mode a copier- or lane-side failure is reported by the first
  /// Stash/Restore call after it happened.
  /// Double-stashing a layer is still a programming error (aborts).
  Status Stash(int layer, LayerActivations&& acts);

  /// Reconstructs the full activation set for the backward pass of `layer`,
  /// recomputing discarded rows with `params`. Removes the stash entry.
  /// Fails when the stashed bytes cannot be read back (checksum mismatch,
  /// truncated spill file, injected I/O fault); the store stays
  /// destructible and the spill file is still cleaned up.
  /// An async store restores in backward layer order (aborts otherwise).
  StatusOr<LayerActivations> Restore(int layer, const LayerParams& params);

  /// Hands back what Restore(`layer`) returned once the layer's backward is
  /// done (bwd(layer)): an async store reuses a swapped layer's tensors as
  /// the restore set of layer − 2. Without it they are freed.
  void Recycle(int layer, LayerActivations&& acts);

  /// High-water mark of the bytes held on the "CPU side" of the real
  /// system: the kept rows of the swapped layers under token-wise (the two
  /// layers in the rounding buffers are device_peak_bytes(), not host
  /// bytes), every retained layer under retain-all. Reached at the end of
  /// a forward pass, before backward drains the stash.
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

  /// Copier and disk-lane measurements plus the per-tier counters, summed
  /// over the store's steps.
  OffloadStats offload_stats() const;

 private:
  /// One swapped layer's serialized kept rows.
  struct Blob {
    std::int64_t kept_bytes = 0;  // payload bytes, without the dims
    std::string bytes;
  };
  /// Where a swapped layer's blob is stashed.
  enum class Tier { kNone, kRam, kDisk };
  /// What a swapped layer's ops hand each other: its tensors (fwd to
  /// offload, prefetch to bwd) and its blob (offload to spill_write,
  /// spill_read to prefetch). A blob in the RAM tier stays here until it
  /// is taken; the disk tier holds a copy and the buffer goes back to
  /// blobs_.
  struct Slot {
    LayerActivations acts;
    Blob blob;
    Tier tier = Tier::kNone;
  };

  /// Whether `layer` stays whole on the "device" instead of swapping.
  bool Keeps(int layer) const;
  std::int64_t CutRow(std::int64_t rows) const;
  /// Runs one transfer op of the schedule on the calling thread. A failure
  /// is recorded in backend_error_ before it is returned, so compute-side
  /// calls observe copier- and lane-side faults. Caller holds no locks.
  Status RunOp(const model::SwapOp& op);
  /// Inline mode: runs `layer`'s transfer ops of one half of the step (its
  /// offload ops, or with `backward` its restore ops) in list order.
  Status RunInline(int layer, bool backward);
  /// A lane's thread: runs the copier's offload and prefetch ops, or the
  /// disk lane's spill ops, in list order, one pass per step.
  void LaneMain(bool disk_lane);
  bool ReadyLocked(const model::SwapOp& op) const;
  /// The compute thread's side of the async schedule; callers hold mu_.
  /// AwaitLocked checks that the compute op due next is `kind` on `layer`
  /// and waits, as span `span`, for the ops it waits for (or a fault);
  /// FinishLocked marks it done.
  Status AwaitLocked(std::unique_lock<std::mutex>& lock,
                     model::SwapOpKind kind, int layer, const char* span,
                     double* wait_seconds);
  void FinishLocked(model::SwapOpKind kind, int layer);
  /// Cuts `acts` to its kept rows and serializes them into a recycled
  /// buffer: the D2H-analog copy.
  Blob Serialize(const LayerActivations& acts);
  /// Puts `layer`'s blob into a tier, RAM first under kTiered, and books
  /// where it landed.
  Status PutBlob(int layer);
  /// One put attempt of `bytes` into the RAM tier.
  Status PutInRam(std::int64_t bytes);
  /// One put attempt of `layer`'s blob into the disk tier. A kTiered store
  /// quarantines the tier after a kInternal failure: later spills fail fast
  /// with that status.
  Status Spill(int layer);
  /// Takes `layer`'s blob back into its slot, a spilled one into a recycled
  /// buffer.
  Status TakeBlob(int layer);
  /// Copies `layer`'s blob (taken first without a disk tier) into a
  /// restore set: the H2D-analog copy.
  Status Prefetch(int layer);
  // Staging and error bookkeeping; callers hold mu_.
  /// Tops the staging up to what the async pipeline holds at once, sized
  /// by `acts`: a blob buffer per blob the RAM tier can hold plus two on
  /// the schedule's staging edges to and from a disk tier (at most one per
  /// swapped layer), and two restore sets (layer i's in backward and layer
  /// i − 1's being filled). Runs on the compute thread at each step's
  /// Stash(0), off the step arena, so a store stages on one thread.
  void ReserveStagingLocked(const LayerActivations& acts);
  std::string AcquireBlob(std::int64_t bytes);
  void ReleaseBlob(std::string&& bytes);
  /// Whether `bytes` more stay within the RAM tier's cap.
  bool RamFitsLocked(std::int64_t bytes) const;
  void RecordErrorLocked(const char* instant, const Status& st);

  ActivationPolicy policy_;
  double alpha_;
  int layers_;
  bool async_ = false;

  /// Token-wise stash tiers (see BackendOptions): the RAM tier is the
  /// slots' blobs, counted in stats_.ram_tier; disk_ is the disk tier of a
  /// kDisk or kTiered store (null under kRam).
  offload::BackendKind kind_;
  std::int64_t ram_capacity_bytes_;
  std::unique_ptr<offload::DiskBackend> disk_;
  /// Host staging, recycled from step to step: serialized blob buffers,
  /// and the full-size restore sets an async store's copier fills for
  /// backward (OffloadStats::staging_allocations). Guarded by mu_.
  std::vector<std::string> blobs_;
  std::vector<LayerActivations> restore_sets_;

  /// A step's swap schedule (token-wise), the swapped layers' slots, and
  /// under async the steps begun, which ops of the current one are done
  /// and the compute op due next. A slot is touched only by the op the
  /// schedule lets run, so its data needs no lock; step_, done_ and
  /// compute_ are guarded by mu_.
  std::vector<model::SwapOp> schedule_;
  std::vector<Slot> slots_;
  std::int64_t step_ = 0;
  std::vector<bool> done_;
  std::size_t compute_ = 0;

  // Guards bookkeeping, staging and stats; every thread takes it briefly
  // around op boundaries, never while copying or doing I/O.
  mutable std::mutex mu_;
  std::condition_variable op_done_;  // an op finished, a fault, or shutdown
  bool shutdown_ = false;

  /// First stash failure observed on any thread (sticky; surfaced by
  /// every later Stash/Restore so the trainer can stop cleanly).
  Status backend_error_;
  /// The fault that quarantined a kTiered store's disk tier (OK while
  /// healthy).
  Status disk_failure_;

  /// Layers kept whole on the "device" (all of them under retain-all, the
  /// last two under token-wise): they never cross a host tier, so they stay
  /// in this map instead of a slot.
  std::unordered_map<int, LayerActivations> retained_;
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
