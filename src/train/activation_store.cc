#include "train/activation_store.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/fault_injector.h"
#include "model/activation_spec.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "train/ops.h"
#include "train/tensor_arena.h"

namespace memo::train {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t BytesOf(const LayerActivations& a) {
  return 4 * (a.input.size() + a.ln1_out.size() + a.ln1_rstd.size() +
              a.q.size() + a.k.size() + a.v.size() + a.attn_out.size() +
              a.proj_out.size() + a.ln2_out.size() + a.ln2_rstd.size() +
              a.fc1_out.size() + a.gelu_out.size());
}

/// Applies `fn(tensor, whole)` to the twelve activation tensors in a fixed
/// order — the wire order of the serialized stash blob. `whole` marks the
/// two a swapped layer keeps in full (tensor-level rule, §4.1); of the
/// others it keeps the first `cut` rows.
template <typename Acts, typename Fn>
void ForEachTensor(Acts& a, Fn&& fn) {
  fn(a.input, true);
  fn(a.ln1_out, false);
  fn(a.ln1_rstd, false);
  fn(a.q, false);
  fn(a.k, false);
  fn(a.v, false);
  fn(a.attn_out, true);
  fn(a.proj_out, false);
  fn(a.ln2_out, false);
  fn(a.ln2_rstd, false);
  fn(a.fc1_out, false);
  fn(a.gelu_out, false);
}

/// Two int64 dims for each of the twelve tensors.
constexpr std::int64_t kDimsBytes = 12 * 2 * sizeof(std::int64_t);

/// Payload bytes a swapped layer keeps at cut row `cut`.
std::int64_t KeptBytes(const LayerActivations& a, std::int64_t cut) {
  std::int64_t bytes = 0;
  ForEachTensor(a, [&](const Tensor& t, bool whole) {
    bytes += 4 * (whole ? t.rows() : cut) * t.cols();
  });
  return bytes;
}

/// Stash wire format: for each tensor, two int64 dims (kept rows, columns)
/// followed by those rows' raw float32 payload, copied straight out of the
/// full tensors. A straight memcpy both ways, so the backend round trip is
/// bit-exact by construction — the property Fig. 12d depends on. `blob`
/// must have room for the dims and KeptBytes(a, cut).
void WriteBlob(const LayerActivations& a, std::int64_t cut,
               std::string* blob) {
  blob->resize(static_cast<std::size_t>(kDimsBytes + KeptBytes(a, cut)));
  char* p = blob->data();
  ForEachTensor(a, [&](const Tensor& t, bool whole) {
    const std::int64_t dims[2] = {whole ? t.rows() : cut, t.cols()};
    std::memcpy(p, dims, sizeof(dims));
    p += sizeof(dims);
    const std::size_t bytes = static_cast<std::size_t>(4 * dims[0] * dims[1]);
    std::memcpy(p, t.data(), bytes);
    p += bytes;
  });
}

/// Copies a blob's kept rows into the first rows of full-size tensors: the
/// one H2D-analog copy of a restore. A tensor already of the full shape (a
/// recycled restore set) keeps its buffer; any other is reallocated
/// uninitialized, since RecomputeRows rewrites every row past the cut.
/// Returns whether it allocated.
bool ReadBlob(const std::string& blob, LayerActivations* acts) {
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  std::int64_t rows = -1;  // the input comes first and is always whole
  bool allocated = false;
  ForEachTensor(*acts, [&](Tensor& t, bool) {
    std::int64_t dims[2];
    MEMO_CHECK_GE(end - p, static_cast<std::ptrdiff_t>(sizeof(dims)))
        << "truncated stash blob";
    std::memcpy(dims, p, sizeof(dims));
    p += sizeof(dims);
    if (rows < 0) rows = dims[0];
    MEMO_CHECK_LE(dims[0], rows) << "stash blob keeps more rows than it has";
    if (t.rows() != rows || t.cols() != dims[1]) {
      t = Tensor::Uninitialized(rows, dims[1]);
      allocated = true;
    }
    const std::int64_t bytes = 4 * dims[0] * dims[1];
    MEMO_CHECK_GE(end - p, static_cast<std::ptrdiff_t>(bytes))
        << "truncated stash blob";
    std::memcpy(t.data(), p, static_cast<std::size_t>(bytes));
    p += bytes;
  });
  MEMO_CHECK(p == end) << "trailing bytes in stash blob";
  return allocated;
}

/// An uninitialized set of tensors shaped like `acts`.
LayerActivations ShapedLike(const LayerActivations& acts) {
  std::int64_t shapes[12][2];
  int i = 0;
  ForEachTensor(acts, [&](const Tensor& t, bool) {
    shapes[i][0] = t.rows();
    shapes[i++][1] = t.cols();
  });
  LayerActivations set;
  i = 0;
  ForEachTensor(set, [&](Tensor& t, bool) {
    t = Tensor::Uninitialized(shapes[i][0], shapes[i][1]);
    ++i;
  });
  return set;
}

/// Replays the token-parallel forward ops for rows [cut, s) of a full-size
/// activation set, exactly as the runtime executor schedules recomputation
/// before the layer's backward pass (Fig. 11). The attention output is
/// available in full, so the O(s^2) attention is never recomputed.
void RecomputeRows(const LayerParams& params, std::int64_t cut,
                   std::int64_t s, LayerActivations* acts) {
  const std::int64_t h = acts->input.cols();
  const Tensor kNoBias;
  LayerNormForwardRows(acts->input, params.ln1_g, params.ln1_b, cut, s,
                       &acts->ln1_out, &acts->ln1_rstd);
  LinearForwardRows(acts->ln1_out, params.wq, kNoBias, cut, s, &acts->q);
  LinearForwardRows(acts->ln1_out, params.wk, kNoBias, cut, s, &acts->k);
  LinearForwardRows(acts->ln1_out, params.wv, kNoBias, cut, s, &acts->v);
  LinearForwardRows(acts->attn_out, params.wo, kNoBias, cut, s,
                    &acts->proj_out);
  // resid1 rows = input + proj_out (recomputed on the fly for ln2).
  Tensor resid1(s, h);
  for (std::int64_t r = cut; r < s; ++r) {
    const float* xi = acts->input.row(r);
    const float* pi = acts->proj_out.row(r);
    float* ri = resid1.row(r);
    for (std::int64_t i = 0; i < h; ++i) ri[i] = xi[i] + pi[i];
  }
  // Fused ln2 -> fc1 -> gelu, the same call the forward pass makes: row-wise
  // data flow plus the bit-identical fusion contract means the recomputed
  // rows reproduce the original activations exactly.
  LayerNormLinearGeluForwardRows(resid1, params.ln2_g, params.ln2_b,
                                 params.w1, params.b1, cut, s, &acts->ln2_out,
                                 &acts->ln2_rstd, &acts->fc1_out,
                                 &acts->gelu_out);
}

}  // namespace

ActivationStore::ActivationStore(ActivationPolicy policy, double alpha,
                                 int layers, bool async_offload,
                                 const offload::BackendOptions& backend,
                                 HostStaging* staging)
    : policy_(policy),
      alpha_(alpha),
      layers_(layers),
      backend_(offload::CreateBackend(backend)),
      retry_(backend.retry),
      staging_(staging != nullptr ? staging : &own_staging_) {
  MEMO_CHECK_GE(alpha, 0.0);
  MEMO_CHECK_LE(alpha, 1.0);
  // The copier only spins up when some layer crosses to the host: never
  // under retain-all, and not for a token-wise model of fewer than three
  // layers, whose layers all fit in the two rounding buffers. A disk tier
  // gets the disk lane beside it.
  async_ = async_offload && policy == ActivationPolicy::kTokenWise &&
           model::SwappedLayers(layers) > 0;
  lane_enabled_ = async_ && backend.kind != offload::BackendKind::kRam;
  next_prefetch_ = model::SwappedLayers(layers) - 1;
  if (async_) copier_ = std::thread([this] { CopierMain(); });
  if (lane_enabled_) lane_ = std::thread([this] { LaneMain(); });
}

ActivationStore::~ActivationStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  copier_wake_.notify_all();
  lane_wake_.notify_all();
  if (copier_.joinable()) copier_.join();
  if (lane_.joinable()) lane_.join();
}

bool ActivationStore::Keeps(int layer) const {
  return policy_ == ActivationPolicy::kRetainAll ||
         !model::LayerSwaps(layer, layers_);
}

std::int64_t ActivationStore::CutRow(std::int64_t rows) const {
  return static_cast<std::int64_t>(
      std::llround(alpha_ * static_cast<double>(rows)));
}

Status ActivationStore::Stash(int layer, LayerActivations&& acts) {
  MEMO_TRACE_SCOPE_ARG("stash", "offload", "layer", layer);
  const std::int64_t full_bytes = BytesOf(acts);
  const bool keep = Keeps(layer);
  const Clock::time_point start = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  // A backend failure is sticky in both modes: once the stash lost (or
  // failed to accept) data the rest of this micro-step cannot be trusted,
  // so every later call reports the original fault.
  if (!backend_error_.ok()) return backend_error_;
  if (policy_ == ActivationPolicy::kRetainAll) {
    // Everything stays on the accelerator.
    device_peak_bytes_ =
        std::max(device_peak_bytes_, stored_bytes_ + full_bytes);
  } else {
    // Token-wise: two rounding buffers, each holding one full layer.
    device_peak_bytes_ = std::max(device_peak_bytes_, 2 * full_bytes);
  }
  if (async_) {
    // Double-buffer handoff: layer i reuses rounding buffer i % 2, which
    // must first finish draining layer i - 2 to the "host" — the analog of
    // WaitEvent(compute, offload_done[i-2]) in the three-stream schedule. A
    // swapped layer waits for either buffer to free; a kept layer never
    // reaches the copier, so it waits for layer i - 2 itself.
    {
      MEMO_TRACE_SCOPE("stash_wait", "offload");
      buffer_free_.wait(lock, [&] {
        return keep ? inflight_offloads_.count(layer - 2) == 0
                    : inflight_offloads_.size() < 2;
      });
    }
    stats_.stash_wait_seconds += SecondsSince(start);
  }
  if (keep) {
    // Only retain-all counts kept layers as stored bytes; the token-wise
    // rounding buffers are device_peak_bytes().
    if (policy_ == ActivationPolicy::kRetainAll) {
      stored_bytes_ += full_bytes;
      peak_stored_bytes_ = std::max(peak_stored_bytes_, stored_bytes_);
    }
    MEMO_CHECK(retained_.emplace(layer, std::move(acts)).second)
        << "layer " << layer << " stashed twice";
    return OkStatus();
  }
  if (!async_) {
    lock.unlock();
    const LayerActivations full = std::move(acts);
    return PutBlob(Serialize(layer, full));
  }
  if (swaps_stashed_++ == 0) ReserveStagingLocked(acts);
  inflight_offloads_.insert(layer);
  jobs_.push_back(CopierJob{CopierJob::Kind::kOffload, layer,
                            std::move(acts)});
  lock.unlock();
  copier_wake_.notify_all();
  return OkStatus();
}

ActivationStore::Blob ActivationStore::Serialize(
    int layer, const LayerActivations& acts) {
  MEMO_TRACE_SCOPE_ARG("offload_copy", "offload", "layer", layer);
  const std::int64_t cut = CutRow(acts.input.rows());
  Blob blob;
  blob.layer = layer;
  blob.kept_bytes = KeptBytes(acts, cut);
  {
    std::lock_guard<std::mutex> lock(mu_);
    blob.bytes = AcquireBlob(kDimsBytes + blob.kept_bytes);
  }
  WriteBlob(acts, cut, &blob.bytes);
  return blob;
}

Status ActivationStore::PutBlob(Blob&& blob) {
  const std::int64_t blob_bytes = static_cast<std::int64_t>(blob.bytes.size());
  // Whole-blob retry: a failed Put leaves both the backend and the blob
  // untouched (backends never consume on failure), so re-running the
  // operation is lossless. The "copier.offload" fault site models a failed
  // D2H-analog transfer, before any backend state changes.
  const Status st = retry_.Run("stash.put", [&]() -> Status {
    MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("copier.offload"));
    return backend_->Put(blob.layer, std::move(blob.bytes));
  });
  const bool on_disk = st.ok() && backend_->OnDisk(blob.layer);
  // Counts serialized bytes (payload + per-tensor dims) where they land, so
  // the total agrees with the tiers' own put_bytes accounting.
  static obs::MetricCounter* stash_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.stash_bytes");
  std::lock_guard<std::mutex> lock(mu_);
  // The RAM tier keeps the buffer; the disk tier copied the bytes out.
  if (!st.ok() || on_disk) ReleaseBlob(std::move(blob.bytes));
  if (!st.ok()) {
    RecordErrorLocked("stash_error", st);
    return st;
  }
  stash_bytes_counter->Add(blob_bytes);
  stored_bytes_ += blob.kept_bytes;
  peak_stored_bytes_ = std::max(peak_stored_bytes_, stored_bytes_);
  // The copied-bytes stat counts only the async path, where the copy
  // really runs off the compute thread.
  if (async_) stats_.offloaded_bytes += blob.kept_bytes;
  MEMO_CHECK(stashed_
                 .emplace(blob.layer,
                          Stashed{blob.kept_bytes, blob_bytes, on_disk})
                 .second)
      << "layer " << blob.layer << " stashed twice";
  MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  return OkStatus();
}

StatusOr<ActivationStore::Blob> ActivationStore::TakeBlob(int layer) {
  Blob blob;
  blob.layer = layer;
  bool on_disk = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stashed_.find(layer);
    MEMO_CHECK(it != stashed_.end()) << "layer " << layer << " not stashed";
    blob.kept_bytes = it->second.kept_bytes;
    on_disk = it->second.on_disk;
    // A spilled blob is read into a recycled buffer; the RAM tier hands
    // back the one it holds.
    if (on_disk) blob.bytes = AcquireBlob(it->second.blob_bytes);
    stashed_.erase(it);
  }
  // The backend read (RAM move or spill-page read-back + checksum verify)
  // runs outside mu_ so no other thread is blocked on disk I/O. A failed
  // Take leaves the blob resident in the backend, so the whole operation
  // can be retried without a spurious not-found.
  const Status st = retry_.Run("restore.take", [&]() -> Status {
    return backend_->TakeInto(layer, &blob.bytes);
  });
  static obs::MetricCounter* restore_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.restore_bytes");
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    if (on_disk) ReleaseBlob(std::move(blob.bytes));
    RecordErrorLocked("restore_error", st);
    return st;
  }
  restore_bytes_counter->Add(static_cast<std::int64_t>(blob.bytes.size()));
  stored_bytes_ -= blob.kept_bytes;
  MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  return blob;
}

StatusOr<LayerActivations> ActivationStore::Restore(
    int layer, const LayerParams& params) {
  MEMO_TRACE_SCOPE_ARG("restore", "offload", "layer", layer);
  LayerActivations acts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!backend_error_.ok()) return backend_error_;
    if (Keeps(layer)) {
      auto it = retained_.find(layer);
      MEMO_CHECK(it != retained_.end())
          << "layer " << layer << " not stashed";
      acts = std::move(it->second);
      retained_.erase(it);
      if (policy_ == ActivationPolicy::kRetainAll) {
        stored_bytes_ -= BytesOf(acts);
      }
    }
  }
  if (!Keeps(layer)) {
    if (async_) {
      MEMO_ASSIGN_OR_RETURN(acts, TakeStaged(layer));
    } else {
      MEMO_TRACE_SCOPE_ARG("fetch_widen", "offload", "layer", layer);
      MEMO_ASSIGN_OR_RETURN(Blob blob, TakeBlob(layer));
      ReadBlob(blob.bytes, &acts);
      std::lock_guard<std::mutex> lock(mu_);
      ReleaseBlob(std::move(blob.bytes));
    }
  }
  // Queue the next layer's prefetch so its H2D-analog copy runs under this
  // layer's recomputation and backward. The first one, of layer L-3, is
  // queued here by Restore(L-2), after L-1's backward has freed its buffer.
  if (async_) QueuePrefetch(layer - 1);
  if (Keeps(layer)) return acts;
  const std::int64_t s = acts.input.rows();
  const std::int64_t cut = CutRow(s);
  if (cut < s) {
    MEMO_TRACE_SCOPE_ARG("recompute", "train", "layer", layer);
    recomputed_rows_ += s - cut;
    RecomputeRows(params, cut, s, &acts);
  }
  return acts;
}

void ActivationStore::Recycle(int layer, LayerActivations&& acts) {
  // Only an async store's swapped layers come out of the staging; the
  // caller frees everything else (forward's or the arena's tensors).
  if (!async_ || Keeps(layer)) return;
  std::lock_guard<std::mutex> lock(mu_);
  staging_->restore_sets.push_back(std::move(acts));
}

StatusOr<LayerActivations> ActivationStore::TakeStaged(int layer) {
  const Clock::time_point start = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (prefetch_ready_layer_ != layer && prefetch_inflight_layer_ != layer) {
    // Restore(layer + 1) was skipped, so nobody queued this prefetch.
    QueuePrefetchLocked(layer);
    copier_wake_.notify_all();
  }
  if (prefetch_ready_layer_ != layer) {
    {
      MEMO_TRACE_SCOPE("restore_wait", "offload");
      stash_ready_.wait(lock, [&] { return prefetch_ready_layer_ == layer; });
    }
    stats_.restore_wait_seconds += SecondsSince(start);
  }
  prefetch_ready_layer_ = -1;
  if (!prefetch_status_.ok()) {
    return std::exchange(prefetch_status_, OkStatus());
  }
  return std::move(prefetch_slot_);
}

void ActivationStore::QueuePrefetch(int layer) {
  if (layer < 0 || Keeps(layer)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    QueuePrefetchLocked(layer);
  }
  copier_wake_.notify_all();
}

void ActivationStore::QueuePrefetchLocked(int layer) {
  // One prefetch at a time, in backward order once every swapped layer is
  // stashed: the order the disk lane reads them back in. Any other order
  // would wait forever on a read that never comes.
  MEMO_CHECK(prefetch_inflight_layer_ < 0 && prefetch_ready_layer_ < 0 &&
             layer == next_prefetch_ &&
             swaps_stashed_ == model::SwappedLayers(layers_))
      << "async Restore of layer " << layer
      << " out of backward order or before forward ended";
  --next_prefetch_;
  prefetch_inflight_layer_ = layer;
  // The restore set to fill: the one layer + 2 used, handed back when its
  // backward ended (bwd_done[layer + 2]); none yet in a run's first step.
  CopierJob job{CopierJob::Kind::kPrefetch, layer, {}};
  if (!staging_->restore_sets.empty()) {
    job.acts = std::move(staging_->restore_sets.back());
    staging_->restore_sets.pop_back();
  }
  jobs_.push_back(std::move(job));
}

void ActivationStore::CopierMain() {
  MEMO_TRACE_SET_THREAD_NAME("offload-copier");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    copier_wake_.wait(lock, [this] { return shutdown_ || !jobs_.empty(); });
    if (shutdown_) return;
    CopierJob job = std::move(jobs_.front());
    jobs_.pop_front();
    if (job.kind == CopierJob::Kind::kPrefetch) {
      lock.unlock();
      RunPrefetch(job.layer, std::move(job.acts));
      lock.lock();
      continue;
    }
    // At most one blob waits behind the one on the disk: serialize only
    // into a free hand-off slot.
    if (lane_enabled_) {
      copier_wake_.wait(lock, [this] {
        return shutdown_ || !backend_error_.ok() || pending_write_.layer < 0;
      });
    }
    // After a fault the layer is dropped (the next Stash/Restore reports
    // the fault); its buffer frees either way, so compute never deadlocks.
    if (!shutdown_ && backend_error_.ok()) {
      lock.unlock();
      const Clock::time_point start = Clock::now();
      Blob blob = Serialize(job.layer, job.acts);
      job.acts = LayerActivations{};  // the rounding buffer is drained
      // Without a lane the copier puts the blob itself; PutBlob records a
      // failure for the compute side to surface.
      if (!lane_enabled_) (void)PutBlob(std::move(blob));
      lock.lock();
      stats_.copier_busy_seconds += SecondsSince(start);
      if (lane_enabled_) {
        pending_write_ = std::move(blob);
        lane_wake_.notify_all();
      }
    }
    inflight_offloads_.erase(job.layer);
    buffer_free_.notify_all();
  }
}

void ActivationStore::RunPrefetch(int layer, LayerActivations&& set) {
  StatusOr<Blob> blob = Blob{};
  if (lane_enabled_) {
    // The lane reads the layer back first (spill_read_done[layer]).
    std::unique_lock<std::mutex> lock(mu_);
    copier_wake_.wait(lock, [&] {
      return shutdown_ || !backend_error_.ok() || read_ready_.layer == layer;
    });
    if (shutdown_) return;
    if (read_ready_.layer == layer) {
      blob = std::exchange(read_ready_, Blob{});
      lane_wake_.notify_all();
    } else {
      blob = backend_error_;
    }
  }
  const Clock::time_point start = Clock::now();
  bool allocated = false;
  {
    MEMO_TRACE_SCOPE_ARG("prefetch_copy", "offload", "layer", layer);
    MEMO_TRACE_SCOPE_ARG("fetch_widen", "offload", "layer", layer);
    if (!lane_enabled_) blob = TakeBlob(layer);
    if (blob.ok()) allocated = ReadBlob(blob->bytes, &set);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (blob.ok()) {
    if (allocated) ++stats_.staging_allocations;
    stats_.prefetched_bytes += blob->kept_bytes;
    ReleaseBlob(std::move(blob->bytes));
    prefetch_slot_ = std::move(set);
    prefetch_status_ = OkStatus();
  } else {
    // Stage the failure: the waiting Restore wakes, sees the status and
    // returns it instead of a garbage activation set.
    prefetch_slot_ = LayerActivations{};
    prefetch_status_ = blob.status();
  }
  prefetch_ready_layer_ = layer;
  prefetch_inflight_layer_ = -1;
  stats_.copier_busy_seconds += SecondsSince(start);
  stash_ready_.notify_all();
}

void ActivationStore::LaneMain() {
  MEMO_TRACE_SET_THREAD_NAME("disk-lane");
  const int swapped = model::SwappedLayers(layers_);
  int next_read = swapped - 1;  // read-back runs in backward order
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    lane_wake_.wait(lock, [&] {
      return shutdown_ || pending_write_.layer >= 0 ||
             (backend_error_.ok() && writes_landed_ == swapped &&
              next_read >= 0 && read_ready_.layer < 0);
    });
    if (shutdown_) return;
    const Clock::time_point start = Clock::now();
    if (pending_write_.layer >= 0) {
      // Taking the blob frees the hand-off slot for the copier's next one.
      Blob blob = std::exchange(pending_write_, Blob{});
      copier_wake_.notify_all();
      if (!backend_error_.ok()) {  // a fault stops the lane
        ReleaseBlob(std::move(blob.bytes));
        continue;
      }
      lock.unlock();
      Status st;
      {
        MEMO_TRACE_SCOPE_ARG("spill_write", "offload", "layer", blob.layer);
        st = PutBlob(std::move(blob));
      }
      lock.lock();
      if (st.ok()) ++writes_landed_;
    } else {
      const int layer = next_read--;
      lock.unlock();
      StatusOr<Blob> blob = Blob{};
      {
        MEMO_TRACE_SCOPE_ARG("spill_read", "offload", "layer", layer);
        blob = TakeBlob(layer);
      }
      lock.lock();
      // A failed read is already recorded (and woke the copier).
      if (blob.ok()) {
        read_ready_ = std::move(blob).value();
        copier_wake_.notify_all();
      }
    }
    stats_.copier_busy_seconds += SecondsSince(start);
  }
}

void ActivationStore::ReserveStagingLocked(const LayerActivations& acts) {
  const std::int64_t bytes =
      kDimsBytes + KeptBytes(acts, CutRow(acts.input.rows()));
  while (staging_->blobs.size() < 2) {
    staging_->blobs.emplace_back();
    staging_->blobs.back().reserve(static_cast<std::size_t>(bytes));
    ++stats_.staging_allocations;
  }
  // Untouched until the copier fills them, off the critical path.
  const ArenaScope heap(nullptr);  // the staging outlives the step
  while (staging_->restore_sets.size() < 2) {
    staging_->restore_sets.push_back(ShapedLike(acts));
    ++stats_.staging_allocations;
  }
}

std::string ActivationStore::AcquireBlob(std::int64_t bytes) {
  std::vector<std::string>& pool = staging_->blobs;
  std::string blob;
  if (!pool.empty()) {
    blob = std::move(pool.back());
    pool.pop_back();
  }
  if (static_cast<std::int64_t>(blob.capacity()) < bytes) {
    blob.reserve(static_cast<std::size_t>(bytes));
    ++stats_.staging_allocations;
  }
  return blob;
}

void ActivationStore::ReleaseBlob(std::string&& bytes) {
  staging_->blobs.push_back(std::move(bytes));
}

void ActivationStore::RecordErrorLocked(const char* instant,
                                        const Status& st) {
  MEMO_TRACE_INSTANT(instant, "offload", st.ToString());
  if (backend_error_.ok()) backend_error_ = st;
  // Every waiter re-checks backend_error_.
  stash_ready_.notify_all();
  buffer_free_.notify_all();
  copier_wake_.notify_all();
  lane_wake_.notify_all();
}

std::int64_t ActivationStore::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stored_bytes_;
}

std::int64_t ActivationStore::peak_stored_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_stored_bytes_;
}

std::int64_t ActivationStore::device_peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return device_peak_bytes_;
}

OffloadStats ActivationStore::offload_stats() const {
  OffloadStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
  }
  stats.ram_tier = backend_->ram_stats();
  stats.disk_tier = backend_->disk_stats();
  return stats;
}

}  // namespace memo::train
