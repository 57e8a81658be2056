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

namespace memo::train {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Truncates `t` to its first `rows` rows (keeping column count).
Tensor KeepRows(const Tensor& t, std::int64_t rows) {
  return t.SliceRows(0, rows);
}

std::int64_t BytesOf(const LayerActivations& a) {
  return 4 * (a.input.size() + a.ln1_out.size() + a.ln1_rstd.size() +
              a.q.size() + a.k.size() + a.v.size() + a.attn_out.size() +
              a.proj_out.size() + a.ln2_out.size() + a.ln2_rstd.size() +
              a.fc1_out.size() + a.gelu_out.size());
}

/// Applies `fn` to the twelve activation tensors in a fixed order — the wire
/// order of the serialized stash blob.
template <typename Acts, typename Fn>
void ForEachTensor(Acts& a, Fn&& fn) {
  fn(a.input);
  fn(a.ln1_out);
  fn(a.ln1_rstd);
  fn(a.q);
  fn(a.k);
  fn(a.v);
  fn(a.attn_out);
  fn(a.proj_out);
  fn(a.ln2_out);
  fn(a.ln2_rstd);
  fn(a.fc1_out);
  fn(a.gelu_out);
}

/// Stash wire format: for each tensor, two int64 dims followed by the raw
/// float32 payload. A straight memcpy both ways, so the backend round trip
/// is bit-exact by construction — the property Fig. 12d depends on.
std::string SerializeActs(const LayerActivations& a) {
  std::int64_t total = 0;
  ForEachTensor(a, [&](const Tensor& t) {
    total += 2 * static_cast<std::int64_t>(sizeof(std::int64_t)) +
             4 * t.size();
  });
  std::string blob;
  blob.reserve(static_cast<std::size_t>(total));
  ForEachTensor(a, [&](const Tensor& t) {
    const std::int64_t dims[2] = {t.rows(), t.cols()};
    blob.append(reinterpret_cast<const char*>(dims), sizeof(dims));
    blob.append(reinterpret_cast<const char*>(t.data()),
                static_cast<std::size_t>(4 * t.size()));
  });
  return blob;
}

LayerActivations DeserializeActs(const std::string& blob) {
  LayerActivations acts;
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  ForEachTensor(acts, [&](Tensor& t) {
    std::int64_t dims[2];
    MEMO_CHECK_GE(end - p, static_cast<std::ptrdiff_t>(sizeof(dims)))
        << "truncated stash blob";
    std::memcpy(dims, p, sizeof(dims));
    p += sizeof(dims);
    Tensor full(dims[0], dims[1]);
    const std::int64_t bytes = 4 * full.size();
    MEMO_CHECK_GE(end - p, static_cast<std::ptrdiff_t>(bytes))
        << "truncated stash blob";
    std::memcpy(full.data(), p, static_cast<std::size_t>(bytes));
    p += bytes;
    t = std::move(full);
  });
  MEMO_CHECK(p == end) << "trailing bytes in stash blob";
  return acts;
}

/// Replays the token-parallel forward ops for rows [cut, s) of a widened
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
                                 const offload::BackendOptions& backend)
    : policy_(policy),
      alpha_(alpha),
      layers_(layers),
      backend_(offload::CreateBackend(backend)),
      retry_(backend.retry) {
  MEMO_CHECK_GE(alpha, 0.0);
  MEMO_CHECK_LE(alpha, 1.0);
  // The copier only spins up when some layer crosses to the host: never
  // under retain-all, and not for a token-wise model of fewer than three
  // layers, whose layers all fit in the two rounding buffers.
  async_ = async_offload && policy == ActivationPolicy::kTokenWise &&
           model::SwappedLayers(layers) > 0;
  if (async_) copier_ = std::thread([this] { CopierMain(); });
}

ActivationStore::~ActivationStore() {
  if (copier_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    copier_wake_.notify_all();
    copier_.join();
  }
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
    return OffloadIntoStash(layer, std::move(acts));
  }
  inflight_offloads_.insert(layer);
  jobs_.push_back(CopierJob{CopierJob::Kind::kOffload, layer,
                            std::move(acts)});
  lock.unlock();
  copier_wake_.notify_all();
  return OkStatus();
}

Status ActivationStore::OffloadIntoStash(int layer, LayerActivations&& acts) {
  MEMO_TRACE_SCOPE_ARG("offload_copy", "offload", "layer", layer);

  const std::int64_t cut = CutRow(acts.input.rows());
  acts.ln1_out = KeepRows(acts.ln1_out, cut);
  acts.ln1_rstd = KeepRows(acts.ln1_rstd, cut);
  acts.q = KeepRows(acts.q, cut);
  acts.k = KeepRows(acts.k, cut);
  acts.v = KeepRows(acts.v, cut);
  acts.proj_out = KeepRows(acts.proj_out, cut);
  acts.ln2_out = KeepRows(acts.ln2_out, cut);
  acts.ln2_rstd = KeepRows(acts.ln2_rstd, cut);
  acts.fc1_out = KeepRows(acts.fc1_out, cut);
  acts.gelu_out = KeepRows(acts.gelu_out, cut);
  const std::int64_t kept_bytes = BytesOf(acts);
  // Serializing IS the D2H-analog copy: every kept byte (including the
  // full-tensor input and attention output, §4.1) leaves "device" tensors
  // for the backend's host/disk storage. The copied-bytes stat counts only
  // the async path, where the copy really runs on the copier thread.
  std::string blob = SerializeActs(acts);
  const std::int64_t blob_bytes = static_cast<std::int64_t>(blob.size());
  // Whole-blob retry: a failed Put leaves both the backend and `blob`
  // untouched (backends never consume on failure), so re-running the
  // operation is lossless. The "copier.offload" fault site models a failed
  // D2H-analog copy on the copier thread, before any backend state changes.
  const Status st = retry_.Run("stash.put", [&]() -> Status {
    MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("copier.offload"));
    return backend_->Put(layer, std::move(blob));
  });
  if (!st.ok()) {
    MEMO_TRACE_INSTANT("stash_error", "offload", st.ToString());
    std::lock_guard<std::mutex> lock(mu_);
    if (backend_error_.ok()) backend_error_ = st;
    stash_ready_.notify_all();
    return st;
  }
  // Counts serialized bytes (payload + per-tensor dims) so the total agrees
  // with the tiers' own put_bytes accounting.
  static obs::MetricCounter* stash_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.stash_bytes");
  stash_bytes_counter->Add(blob_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  stored_bytes_ += kept_bytes;
  peak_stored_bytes_ = std::max(peak_stored_bytes_, stored_bytes_);
  if (async_) stats_.offloaded_bytes += kept_bytes;
  MEMO_CHECK(stashed_.insert(layer).second)
      << "layer " << layer << " stashed twice";
  MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  stash_ready_.notify_all();
  return OkStatus();
}

StatusOr<LayerActivations> ActivationStore::FetchAndWiden(
    int layer, std::int64_t* copied_bytes) {
  *copied_bytes = 0;
  LayerActivations acts;
  if (Keeps(layer)) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = retained_.find(layer);
    MEMO_CHECK(it != retained_.end()) << "layer " << layer << " not stashed";
    acts = std::move(it->second);
    retained_.erase(it);
    if (policy_ == ActivationPolicy::kRetainAll) {
      stored_bytes_ -= BytesOf(acts);
    }
    return acts;
  }

  MEMO_TRACE_SCOPE_ARG("fetch_widen", "offload", "layer", layer);
  {
    std::lock_guard<std::mutex> lock(mu_);
    MEMO_CHECK(stashed_.erase(layer) == 1)
        << "layer " << layer << " not stashed";
  }
  // The backend read (RAM move or spill-page read-back + checksum verify)
  // runs outside mu_ so the other thread is never blocked on disk I/O. A
  // failed Take leaves the blob resident in the backend, so the whole
  // operation can be retried without a spurious not-found.
  StatusOr<std::string> blob = retry_.RunOr<std::string>(
      "restore.take",
      [&]() -> StatusOr<std::string> { return backend_->Take(layer); });
  if (!blob.ok()) {
    MEMO_TRACE_INSTANT("restore_error", "offload", blob.status().ToString());
    std::lock_guard<std::mutex> lock(mu_);
    if (backend_error_.ok()) backend_error_ = blob.status();
    stash_ready_.notify_all();
    return blob.status();
  }
  acts = DeserializeActs(blob.value());
  static obs::MetricCounter* restore_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.restore_bytes");
  restore_bytes_counter->Add(static_cast<std::int64_t>(blob.value().size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    stored_bytes_ -= BytesOf(acts);
    MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  }

  const std::int64_t s = acts.input.rows();
  const std::int64_t h = acts.input.cols();
  const std::int64_t cut = CutRow(s);
  if (cut == s && !async_) return acts;  // alpha == 1, inline: nothing moved

  // Re-materialize full-size tensors with the kept rows copied back in —
  // the H2D-analog transfer into the rounding buffer. Inline mode skips it
  // when nothing was discarded; async mode always copies (pure swapping
  // moves every byte through the prefetch stream).
  const std::int64_t ffn = acts.fc1_out.cols();
  auto widen = [&](Tensor& partial, std::int64_t cols) {
    Tensor full(s, cols);
    full.CopyRowsFrom(partial, 0, std::min(cut, partial.rows()));
    *copied_bytes += 4 * partial.size();
    partial = std::move(full);
  };
  widen(acts.ln1_out, h);
  widen(acts.ln1_rstd, 1);
  widen(acts.q, h);
  widen(acts.k, h);
  widen(acts.v, h);
  widen(acts.proj_out, h);
  widen(acts.ln2_out, h);
  widen(acts.ln2_rstd, 1);
  widen(acts.fc1_out, ffn);
  widen(acts.gelu_out, ffn);
  return acts;
}

StatusOr<LayerActivations> ActivationStore::Restore(
    int layer, const LayerParams& params) {
  MEMO_TRACE_SCOPE_ARG("restore", "offload", "layer", layer);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!backend_error_.ok()) return backend_error_;
  }
  LayerActivations acts;
  if (Keeps(layer) || !async_) {
    std::int64_t copied = 0;
    MEMO_ASSIGN_OR_RETURN(acts, FetchAndWiden(layer, &copied));
  } else {
    MEMO_ASSIGN_OR_RETURN(acts, TakeStaged(layer));
  }
  // Queue the next layer's prefetch so its H2D-analog copies run under this
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

StatusOr<LayerActivations> ActivationStore::TakeStaged(int layer) {
  const Clock::time_point start = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (prefetch_ready_layer_ != layer && prefetch_inflight_layer_ != layer) {
    {
      MEMO_TRACE_SCOPE("restore_wait", "offload");
      stash_ready_.wait(lock, [&] {
        return stashed_.count(layer) > 0 || !backend_error_.ok();
      });
    }
    stats_.restore_wait_seconds += SecondsSince(start);
    if (stashed_.count(layer) == 0) return backend_error_;
    lock.unlock();
    std::int64_t copied = 0;
    StatusOr<LayerActivations> fetched = FetchAndWiden(layer, &copied);
    if (fetched.ok()) {
      lock.lock();
      stats_.prefetched_bytes += copied;
    }
    return fetched;
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
    if (prefetch_inflight_layer_ >= 0 || prefetch_ready_layer_ >= 0) return;
    prefetch_inflight_layer_ = layer;
    jobs_.push_back(CopierJob{CopierJob::Kind::kPrefetch, layer, {}});
  }
  copier_wake_.notify_all();
}

void ActivationStore::CopierMain() {
  MEMO_TRACE_SET_THREAD_NAME("offload-copier");
  for (;;) {
    CopierJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      copier_wake_.wait(lock,
                        [this] { return shutdown_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (shutdown_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const Clock::time_point start = Clock::now();
    if (job.kind == CopierJob::Kind::kOffload) {
      // A failure is recorded in backend_error_ inside OffloadIntoStash;
      // the next compute-side Stash/Restore surfaces it. The buffer slot is
      // freed either way so the compute thread never deadlocks on a fault.
      const Status st = OffloadIntoStash(job.layer, std::move(job.acts));
      (void)st;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.copier_busy_seconds += SecondsSince(start);
      inflight_offloads_.erase(job.layer);
      buffer_free_.notify_all();
    } else {
      MEMO_TRACE_SCOPE_ARG("prefetch_copy", "offload", "layer", job.layer);
      // Read-ahead hint first: the disk tier stages + verifies the spill
      // pages so the Take inside FetchAndWiden is a memory move.
      backend_->Prefetch(job.layer);
      std::int64_t copied = 0;
      StatusOr<LayerActivations> acts = FetchAndWiden(job.layer, &copied);
      std::lock_guard<std::mutex> lock(mu_);
      if (acts.ok()) {
        prefetch_slot_ = std::move(acts).value();
        prefetch_status_ = OkStatus();
      } else {
        // Stage the failure: the waiting Restore wakes, sees the status and
        // returns it instead of a garbage activation set.
        prefetch_slot_ = LayerActivations{};
        prefetch_status_ = acts.status();
      }
      prefetch_ready_layer_ = job.layer;
      prefetch_inflight_layer_ = -1;
      stats_.prefetched_bytes += copied;
      stats_.copier_busy_seconds += SecondsSince(start);
      stash_ready_.notify_all();
    }
  }
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
