#include "train/activation_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/fault_injector.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "train/ops.h"
#include "train/tensor_arena.h"

namespace memo::train {

namespace {

using Clock = std::chrono::steady_clock;

/// Whole-blob retry around each put and take, on top of the disk tier's
/// per-page retries. Safe because a failed put or take leaves both the
/// blob and the tiers unchanged, so re-attempting the full operation
/// cannot lose data.
constexpr RetryPolicy kBlobRetry{};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t BytesOf(const LayerActivations& a) {
  return 4 * (a.input.size() + a.ln1_out.size() + a.ln1_rstd.size() +
              a.q.size() + a.k.size() + a.v.size() + a.attn_out.size() +
              a.attn_lse.size() + a.proj_out.size() + a.ln2_out.size() +
              a.ln2_rstd.size() + a.fc1_out.size() + a.gelu_out.size());
}

/// Applies `fn(tensor, whole)` to the thirteen activation tensors in a
/// fixed order — the wire order of the serialized stash blob. `whole` marks
/// the three a swapped layer keeps in full: the input and the attention
/// output (tensor-level rule, §4.1) and the attention's log-sum-exp, which
/// travels with its output; of the others it keeps the first `cut` rows.
template <typename Acts, typename Fn>
void ForEachTensor(Acts& a, Fn&& fn) {
  fn(a.input, true);
  fn(a.ln1_out, false);
  fn(a.ln1_rstd, false);
  fn(a.q, false);
  fn(a.k, false);
  fn(a.v, false);
  fn(a.attn_out, true);
  fn(a.attn_lse, true);
  fn(a.proj_out, false);
  fn(a.ln2_out, false);
  fn(a.ln2_rstd, false);
  fn(a.fc1_out, false);
  fn(a.gelu_out, false);
}

/// Two int64 dims for each of the thirteen tensors.
constexpr std::int64_t kDimsBytes = 13 * 2 * sizeof(std::int64_t);

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
/// uninitialized, since LayerForwardRows rewrites every row past the cut.
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
  std::int64_t shapes[13][2];
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

/// Gives `t` the shape [rows, cols], allocating only when it has another.
/// A new tensor is not zero-filled: the op that outputs into it writes
/// every row it owns (train/ops.h).
void EnsureShape(Tensor* t, std::int64_t rows, std::int64_t cols) {
  if (t->rows() != rows || t->cols() != cols) {
    *t = Tensor::Uninitialized(rows, cols);
  }
}

/// In an async store the compute thread runs fwd and bwd, the disk lane the
/// spill ops, and the copier offload and prefetch.
bool IsComputeOp(model::SwapOpKind kind) {
  return kind == model::SwapOpKind::kFwd || kind == model::SwapOpKind::kBwd;
}
bool IsSpillOp(model::SwapOpKind kind) {
  return kind == model::SwapOpKind::kSpillWrite ||
         kind == model::SwapOpKind::kSpillRead;
}

/// The compute thread's ops come in list order, fwd(0) .. fwd(L-1) then
/// bwd(L-1) .. bwd(0); any other call order is a caller bug that would
/// otherwise wait forever on an op that never runs.
void CheckDue(const std::vector<model::SwapOp>& schedule, std::size_t due,
              model::SwapOpKind kind, int layer) {
  MEMO_CHECK(due < schedule.size() && schedule[due].kind == kind &&
             schedule[due].layer == layer)
      << "async store: " << model::SwapOpName(kind) << " of layer " << layer
      << " out of schedule order (Stash in forward order, then Restore in "
         "backward order)";
}

}  // namespace

Tensor LayerForwardRows(const LayerParams& params, int heads,
                        std::int64_t begin, std::int64_t end,
                        LayerActivations* acts) {
  const Tensor& x = acts->input;
  const std::int64_t s = x.rows();
  const std::int64_t h = x.cols();
  const std::int64_t ffn = params.w1.cols();
  const Tensor kNoBias;
  EnsureShape(&acts->ln1_out, s, h);
  EnsureShape(&acts->ln1_rstd, s, 1);
  LayerNormForwardRows(x, params.ln1_g, params.ln1_b, begin, end,
                       &acts->ln1_out, &acts->ln1_rstd);
  EnsureShape(&acts->q, s, h);
  EnsureShape(&acts->k, s, h);
  EnsureShape(&acts->v, s, h);
  LinearForwardRows(acts->ln1_out, params.wq, kNoBias, begin, end, &acts->q);
  LinearForwardRows(acts->ln1_out, params.wk, kNoBias, begin, end, &acts->k);
  LinearForwardRows(acts->ln1_out, params.wv, kNoBias, begin, end, &acts->v);
  if (heads > 0) {
    acts->attn_out = Tensor::Uninitialized(s, h);
    acts->attn_lse = Tensor::Uninitialized(s, heads);
    AttentionForward(acts->q, acts->k, acts->v, heads, &acts->attn_out,
                     &acts->attn_lse);
  }
  EnsureShape(&acts->proj_out, s, h);
  LinearForwardRows(acts->attn_out, params.wo, kNoBias, begin, end,
                    &acts->proj_out);
  Tensor resid1 = Tensor::Uninitialized(s, h);
  AddRows(x, acts->proj_out, begin, end, &resid1);
  EnsureShape(&acts->ln2_out, s, h);
  EnsureShape(&acts->ln2_rstd, s, 1);
  EnsureShape(&acts->fc1_out, s, ffn);
  EnsureShape(&acts->gelu_out, s, ffn);
  // Fused ln2 -> fc1 -> gelu: bit-identical to the unfused sequence, but
  // the fc1 pre-activation never round-trips through memory before the
  // GELU.
  LayerNormLinearGeluForwardRows(resid1, params.ln2_g, params.ln2_b,
                                 params.w1, params.b1, begin, end,
                                 &acts->ln2_out, &acts->ln2_rstd,
                                 &acts->fc1_out, &acts->gelu_out);
  return resid1;
}

ActivationStore::ActivationStore(ActivationPolicy policy, double alpha,
                                 int layers, bool async_offload,
                                 const offload::BackendOptions& backend)
    : policy_(policy),
      alpha_(alpha),
      layers_(layers),
      kind_(backend.kind),
      ram_capacity_bytes_(backend.ram_capacity_bytes) {
  MEMO_CHECK_GE(alpha, 0.0);
  MEMO_CHECK_LE(alpha, 1.0);
  if (kind_ != offload::BackendKind::kRam) {
    disk_ = std::make_unique<offload::DiskBackend>(backend.disk);
  }
  if (policy == ActivationPolicy::kTokenWise) {
    schedule_ = model::SwapSchedule(layers, disk_ != nullptr);
    slots_.resize(model::SwappedLayers(layers));
  }
  // The lanes only spin up when some layer crosses to the host: never under
  // retain-all, and not for a token-wise model of fewer than three layers,
  // whose layers all fit in the two rounding buffers.
  async_ = async_offload && !slots_.empty();
  if (!async_) return;
  compute_ = schedule_.size() - 1;  // bwd(0) is due: Stash(0) begins a step
  copier_ = std::thread([this] { LaneMain(/*disk_lane=*/false); });
  if (disk_ != nullptr) {
    lane_ = std::thread([this] { LaneMain(/*disk_lane=*/true); });
  }
}

ActivationStore::~ActivationStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  op_done_.notify_all();
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
  MEMO_CHECK(layer >= 0 && layer < layers_) << "layer " << layer;
  const std::int64_t full_bytes = BytesOf(acts);
  const bool keep = Keeps(layer);
  std::unique_lock<std::mutex> lock(mu_);
  // A backend failure is sticky in both modes: once the stash lost (or
  // failed to accept) data the rest of this step cannot be trusted,
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
  // fwd(layer) ends here, once its rounding buffer has drained layer - 2.
  if (async_) {
    if (layer == 0 && compute_ + 1 == schedule_.size()) {  // a new step
      done_.assign(schedule_.size(), false);
      compute_ = 0;
      ++step_;
    }
    MEMO_RETURN_IF_ERROR(AwaitLocked(lock, model::SwapOpKind::kFwd, layer,
                                     "stash_wait",
                                     &stats_.stash_wait_seconds));
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
  } else {
    if (async_ && layer == 0) ReserveStagingLocked(acts);
    slots_[layer].acts = std::move(acts);
  }
  if (async_) {
    FinishLocked(model::SwapOpKind::kFwd, layer);
    return OkStatus();
  }
  lock.unlock();
  return keep ? OkStatus() : RunInline(layer, /*backward=*/false);
}

StatusOr<LayerActivations> ActivationStore::Restore(
    int layer, const LayerParams& params) {
  MEMO_TRACE_SCOPE_ARG("restore", "offload", "layer", layer);
  MEMO_CHECK(layer >= 0 && layer < layers_) << "layer " << layer;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!backend_error_.ok()) return backend_error_;
    if (async_) {
      // The caller is back for this layer, so bwd(layer + 1) has ended and
      // freed the rounding buffer prefetch(layer - 1) fills.
      if (layer + 1 < layers_) FinishLocked(model::SwapOpKind::kBwd, layer + 1);
      MEMO_RETURN_IF_ERROR(AwaitLocked(lock, model::SwapOpKind::kBwd, layer,
                                       "restore_wait",
                                       &stats_.restore_wait_seconds));
    }
    if (Keeps(layer)) {
      auto it = retained_.find(layer);
      MEMO_CHECK(it != retained_.end())
          << "layer " << layer << " not stashed";
      LayerActivations acts = std::move(it->second);
      retained_.erase(it);
      if (policy_ == ActivationPolicy::kRetainAll) {
        stored_bytes_ -= BytesOf(acts);
      }
      return acts;
    }
  }
  if (!async_) MEMO_RETURN_IF_ERROR(RunInline(layer, /*backward=*/true));
  LayerActivations acts = std::move(slots_[layer].acts);
  const std::int64_t s = acts.input.rows();
  const std::int64_t cut = CutRow(s);
  if (cut < s) {
    MEMO_TRACE_SCOPE_ARG("recompute", "train", "layer", layer);
    recomputed_rows_ += s - cut;
    LayerForwardRows(params, /*heads=*/0, cut, s, &acts);
  }
  return acts;
}

void ActivationStore::Recycle(int layer, LayerActivations&& acts) {
  // Only an async store's swapped layers come out of the staging; the
  // caller frees everything else (forward's or the arena's tensors).
  if (!async_ || Keeps(layer)) return;
  std::lock_guard<std::mutex> lock(mu_);
  restore_sets_.push_back(std::move(acts));
}

Status ActivationStore::RunOp(const model::SwapOp& op) {
  MEMO_TRACE_SCOPE_ARG(model::SwapOpName(op.kind), "offload", "layer",
                       op.layer);
  Slot& slot = slots_[op.layer];
  switch (op.kind) {
    case model::SwapOpKind::kOffload:
      slot.blob = Serialize(slot.acts);
      slot.acts = LayerActivations{};  // the rounding buffer is drained
      return disk_ == nullptr ? PutBlob(op.layer) : OkStatus();
    case model::SwapOpKind::kSpillWrite:
      return PutBlob(op.layer);
    case model::SwapOpKind::kSpillRead:
      return TakeBlob(op.layer);
    case model::SwapOpKind::kPrefetch:
      return Prefetch(op.layer);
    default:
      MEMO_CHECK(false) << model::SwapOpName(op.kind) << " is a compute op";
      return OkStatus();
  }
}

Status ActivationStore::RunInline(int layer, bool backward) {
  for (const model::SwapOp& op : schedule_) {
    const bool restores = op.kind == model::SwapOpKind::kSpillRead ||
                          op.kind == model::SwapOpKind::kPrefetch;
    if (op.layer == layer && !IsComputeOp(op.kind) && restores == backward) {
      MEMO_RETURN_IF_ERROR(RunOp(op));
    }
  }
  return OkStatus();
}

void ActivationStore::LaneMain(bool disk_lane) {
  MEMO_TRACE_SET_THREAD_NAME(disk_lane ? "disk-lane" : "offload-copier");
  // A pass waits for its step to begin; a lane ends each pass before the
  // next step can begin, since bwd(0) waits for both lanes' last ops.
  for (std::int64_t step = 1;; ++step) {
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const model::SwapOp& op = schedule_[i];
      if (IsComputeOp(op.kind) || IsSpillOp(op.kind) != disk_lane) continue;
      {
        std::unique_lock<std::mutex> lock(mu_);
        op_done_.wait(lock, [&] {
          return shutdown_ || !backend_error_.ok() ||
                 (step_ == step && ReadyLocked(op));
        });
        // A fault stops the lanes; the compute thread reports it.
        if (shutdown_ || !backend_error_.ok()) return;
      }
      const Clock::time_point start = Clock::now();
      (void)RunOp(op);  // a failure is recorded in backend_error_
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.copier_busy_seconds += SecondsSince(start);
        done_[i] = true;
      }
      op_done_.notify_all();
    }
  }
}

bool ActivationStore::ReadyLocked(const model::SwapOp& op) const {
  return std::all_of(op.waits.begin(), op.waits.end(),
                     [this](int wait) { return done_[wait]; });
}

Status ActivationStore::AwaitLocked(std::unique_lock<std::mutex>& lock,
                                    model::SwapOpKind kind, int layer,
                                    const char* span, double* wait_seconds) {
  CheckDue(schedule_, compute_, kind, layer);
  const model::SwapOp& op = schedule_[compute_];
  if (!ReadyLocked(op)) {
    const Clock::time_point start = Clock::now();
    {
      MEMO_TRACE_SCOPE(span, "offload");
      op_done_.wait(lock,
                    [&] { return !backend_error_.ok() || ReadyLocked(op); });
    }
    *wait_seconds += SecondsSince(start);
  }
  return backend_error_;
}

void ActivationStore::FinishLocked(model::SwapOpKind kind, int layer) {
  CheckDue(schedule_, compute_, kind, layer);
  done_[compute_] = true;
  do {
    ++compute_;
  } while (compute_ < schedule_.size() &&
           !IsComputeOp(schedule_[compute_].kind));
  op_done_.notify_all();
}

ActivationStore::Blob ActivationStore::Serialize(
    const LayerActivations& acts) {
  const std::int64_t cut = CutRow(acts.input.rows());
  Blob blob;
  blob.kept_bytes = KeptBytes(acts, cut);
  {
    std::lock_guard<std::mutex> lock(mu_);
    blob.bytes = AcquireBlob(kDimsBytes + blob.kept_bytes);
  }
  WriteBlob(acts, cut, &blob.bytes);
  return blob;
}

Status ActivationStore::PutBlob(int layer) {
  Slot& slot = slots_[layer];
  MEMO_CHECK(slot.tier == Tier::kNone) << "layer " << layer
                                       << " stashed twice";
  const std::int64_t bytes = static_cast<std::int64_t>(slot.blob.bytes.size());
  Tier tier = Tier::kNone;
  // Whole-blob retry: a failed put leaves both the blob and the tiers
  // untouched, so re-running the operation is lossless. The
  // "copier.offload" fault site models a failed D2H-analog transfer, before
  // any tier changes.
  const Status st = kBlobRetry.Run("stash.put", [&]() -> Status {
    MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("copier.offload"));
    bool spill = kind_ == offload::BackendKind::kDisk;
    if (kind_ == offload::BackendKind::kTiered) {
      MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("tiered.put"));
      std::lock_guard<std::mutex> lock(mu_);
      spill = !RamFitsLocked(bytes);
    }
    tier = spill ? Tier::kDisk : Tier::kRam;
    return spill ? Spill(layer) : PutInRam(bytes);
  });
  // Counts serialized bytes (payload + per-tensor dims) where they land, so
  // the total agrees with the tiers' own put_bytes accounting.
  static obs::MetricCounter* stash_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.stash_bytes");
  std::lock_guard<std::mutex> lock(mu_);
  // The RAM tier keeps the buffer in the slot; the disk tier copied the
  // bytes out.
  if (!st.ok() || tier == Tier::kDisk) ReleaseBlob(std::move(slot.blob.bytes));
  if (!st.ok()) {
    RecordErrorLocked("stash_error", st);
    return st;
  }
  slot.tier = tier;
  stash_bytes_counter->Add(bytes);
  stored_bytes_ += slot.blob.kept_bytes;
  peak_stored_bytes_ = std::max(peak_stored_bytes_, stored_bytes_);
  // The copied-bytes stat counts only the async path, where the copy
  // really runs off the compute thread.
  if (async_) stats_.offloaded_bytes += slot.blob.kept_bytes;
  MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  return OkStatus();
}

Status ActivationStore::PutInRam(std::int64_t bytes) {
  const Clock::time_point start = Clock::now();
  // A fired fault models a failed host copy: nothing was mutated yet, so
  // the caller may retry the whole put.
  MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("ram.put"));
  std::lock_guard<std::mutex> lock(mu_);
  offload::TierStats& ram = stats_.ram_tier;
  if (!RamFitsLocked(bytes)) {
    return OutOfHostMemoryError(
        "RAM stash tier full: " + std::to_string(ram.resident_bytes) +
        " + " + std::to_string(bytes) + " bytes exceeds capacity " +
        std::to_string(ram_capacity_bytes_));
  }
  static obs::MetricCounter* put_bytes_counter =
      obs::MetricsRegistry::Global().counter("ram.put_bytes");
  put_bytes_counter->Add(bytes);
  ram.put_bytes += bytes;
  ram.resident_bytes += bytes;
  ram.peak_resident_bytes = std::max(ram.peak_resident_bytes,
                                     ram.resident_bytes);
  ram.write_seconds += SecondsSince(start);
  return OkStatus();
}

Status ActivationStore::Spill(int layer) {
  const bool quarantines = kind_ == offload::BackendKind::kTiered;
  if (quarantines) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!disk_failure_.ok()) {
      return Status(disk_failure_.code(),
                    "disk tier quarantined: " + disk_failure_.message());
    }
  }
  const Status st = disk_->Put(layer, slots_[layer].blob.bytes);
  // A put error that survived the disk's own per-page retries means the
  // device is effectively dead: a tiered store quarantines the tier so
  // later spills fail fast instead of grinding through doomed retries.
  // Only the first failure gets here: a quarantined tier is never touched.
  if (quarantines && st.code() == StatusCode::kInternal) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disk_failure_ = st;
    }
    obs::MetricsRegistry::Global().counter("tiered.disk_quarantined")->Add(1);
    MEMO_TRACE_INSTANT("disk_quarantined", "fault", st.message());
  }
  return st;
}

Status ActivationStore::TakeBlob(int layer) {
  Slot& slot = slots_[layer];
  MEMO_CHECK(slot.tier != Tier::kNone) << "layer " << layer << " not stashed";
  const bool on_disk = slot.tier == Tier::kDisk;
  const std::int64_t bytes = kDimsBytes + slot.blob.kept_bytes;
  // A spilled blob is read into a recycled buffer; a RAM-tier blob is still
  // in the slot.
  if (on_disk) {
    std::lock_guard<std::mutex> lock(mu_);
    slot.blob.bytes = AcquireBlob(bytes);
  }
  // The spill-page read-back + checksum verify runs outside mu_ so no
  // other thread is blocked on disk I/O. A failed take leaves the blob
  // where it was, so the whole operation can be retried without a spurious
  // not-found.
  const Status st = kBlobRetry.Run("restore.take", [&]() -> Status {
    if (on_disk) return disk_->TakeInto(layer, &slot.blob.bytes);
    const Clock::time_point start = Clock::now();
    MEMO_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("ram.take"));
    std::lock_guard<std::mutex> lock(mu_);
    static obs::MetricCounter* take_bytes_counter =
        obs::MetricsRegistry::Global().counter("ram.take_bytes");
    take_bytes_counter->Add(bytes);
    stats_.ram_tier.take_bytes += bytes;
    stats_.ram_tier.resident_bytes -= bytes;
    stats_.ram_tier.read_seconds += SecondsSince(start);
    return OkStatus();
  });
  static obs::MetricCounter* restore_bytes_counter =
      obs::MetricsRegistry::Global().counter("offload.restore_bytes");
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    if (on_disk) ReleaseBlob(std::move(slot.blob.bytes));
    RecordErrorLocked("restore_error", st);
    return st;
  }
  slot.tier = Tier::kNone;
  restore_bytes_counter->Add(bytes);
  stored_bytes_ -= slot.blob.kept_bytes;
  MEMO_TRACE_COUNTER("stash_resident_bytes", stored_bytes_);
  return OkStatus();
}

Status ActivationStore::Prefetch(int layer) {
  // Without a disk tier the take is this op's; spill_read brought a
  // spilling store's blob back.
  if (disk_ == nullptr) MEMO_RETURN_IF_ERROR(TakeBlob(layer));
  Slot& slot = slots_[layer];
  // An async store fills the restore set layer + 2 handed back when its
  // backward ended (a reserved one for the first two); an inline restore
  // allocates its own from the step arena.
  LayerActivations set;
  if (async_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!restore_sets_.empty()) {
      set = std::move(restore_sets_.back());
      restore_sets_.pop_back();
    }
  }
  const bool allocated = ReadBlob(slot.blob.bytes, &set);
  slot.acts = std::move(set);
  std::lock_guard<std::mutex> lock(mu_);
  if (async_) {
    if (allocated) ++stats_.staging_allocations;
    stats_.prefetched_bytes += slot.blob.kept_bytes;
  }
  ReleaseBlob(std::move(slot.blob.bytes));
  return OkStatus();
}

void ActivationStore::ReserveStagingLocked(const LayerActivations& acts) {
  const std::int64_t bytes =
      kDimsBytes + KeptBytes(acts, CutRow(acts.input.rows()));
  const std::int64_t swapped = static_cast<std::int64_t>(slots_.size());
  std::int64_t blobs = disk_ != nullptr ? 2 : 0;
  if (kind_ != offload::BackendKind::kDisk) {
    blobs += ram_capacity_bytes_ > 0 ? ram_capacity_bytes_ / bytes : swapped;
  }
  while (static_cast<std::int64_t>(blobs_.size()) < std::min(blobs, swapped)) {
    blobs_.emplace_back();
    blobs_.back().reserve(static_cast<std::size_t>(bytes));
    ++stats_.staging_allocations;
  }
  // Untouched until the copier fills them, off the critical path.
  const ArenaScope heap(nullptr);  // the staging outlives the step
  while (restore_sets_.size() < 2) {
    restore_sets_.push_back(ShapedLike(acts));
    ++stats_.staging_allocations;
  }
}

std::string ActivationStore::AcquireBlob(std::int64_t bytes) {
  std::string blob;
  if (!blobs_.empty()) {
    blob = std::move(blobs_.back());
    blobs_.pop_back();
  }
  if (static_cast<std::int64_t>(blob.capacity()) < bytes) {
    blob.reserve(static_cast<std::size_t>(bytes));
    ++stats_.staging_allocations;
  }
  return blob;
}

void ActivationStore::ReleaseBlob(std::string&& bytes) {
  blobs_.push_back(std::move(bytes));
}

bool ActivationStore::RamFitsLocked(std::int64_t bytes) const {
  return ram_capacity_bytes_ <= 0 ||
         stats_.ram_tier.resident_bytes + bytes <= ram_capacity_bytes_;
}

void ActivationStore::RecordErrorLocked(const char* instant,
                                        const Status& st) {
  MEMO_TRACE_INSTANT(instant, "offload", st.ToString());
  if (backend_error_.ok()) backend_error_ = st;
  op_done_.notify_all();  // every waiter re-checks backend_error_
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
  if (disk_ != nullptr) stats.disk_tier = disk_->stats();
  return stats;
}

}  // namespace memo::train
