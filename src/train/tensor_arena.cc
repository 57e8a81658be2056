#include "train/tensor_arena.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo::train {
namespace {

// Must match the rounding DsaInstance::FromRequests applies, or the planned
// size check in Allocate would reject every replayed allocation.
constexpr std::int64_t kArenaGranularity = 512;
constexpr std::int64_t kArenaAlignment = 64;

std::int64_t RoundUp(std::int64_t bytes, std::int64_t to) {
  return (bytes + to - 1) / to * to;
}

void* AlignedHeapAlloc(std::int64_t bytes) {
  void* ptr = std::aligned_alloc(
      static_cast<std::size_t>(kArenaAlignment),
      static_cast<std::size_t>(RoundUp(bytes, kArenaAlignment)));
  MEMO_CHECK(ptr != nullptr);
  return ptr;
}

thread_local TensorArena* g_current_arena = nullptr;

struct ArenaMetrics {
  obs::MetricGauge* capacity;
  obs::MetricGauge* planned_peak;
  obs::MetricGauge* high_water;
  obs::MetricCounter* planned_steps;
  obs::MetricCounter* heap_fallbacks;
  obs::MetricCounter* divergences;
};

ArenaMetrics& Metrics() {
  static ArenaMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return ArenaMetrics{
        reg.gauge("arena.capacity_bytes"),
        reg.gauge("arena.planned_peak_bytes"),
        reg.gauge("arena.high_water_bytes"),
        reg.counter("arena.planned_steps"),
        reg.counter("arena.heap_fallback_allocs"),
        reg.counter("arena.plan_divergences"),
    };
  }();
  return m;
}

}  // namespace

TensorArena::TensorArena()
    : state_(State::kMeasuring), scope_thread_(std::this_thread::get_id()) {}

TensorArena::~TensorArena() {
  std::lock_guard<std::mutex> lock(mu_);
  // Any still-live measure-mode blocks belong to leaked tensors; freeing
  // them here would dangle, so they are intentionally left to the process.
  if (slab_ != nullptr) std::free(slab_);
}

void TensorArena::BeginStep() {
  std::lock_guard<std::mutex> lock(mu_);
  scope_thread_ = std::this_thread::get_id();
  switch (state_) {
    case State::kMeasuring:
      if (!events_.empty()) {
        CommitPlanLocked();
        if (state_ == State::kPlanned) {
          ++planned_steps_;
          Metrics().planned_steps->Increment();
        }
      } else {
        ResetMeasurementLocked();
      }
      break;
    case State::kPlanned:
      if (diverged_this_step_) {
        AbandonPlanLocked();
      } else {
        ++planned_steps_;
        Metrics().planned_steps->Increment();
      }
      cursor_ = 0;
      diverged_this_step_ = false;
      break;
  }
  PublishGaugesLocked();
  MEMO_TRACE_COUNTER("arena_high_water_bytes", high_water_);
}

void TensorArena::DiscardStep() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kMeasuring) {
    ResetMeasurementLocked();
    return;
  }
  // BeginStep counted this step when it started it on the plan.
  --planned_steps_;
  Metrics().planned_steps->Add(-1);
}

TensorArena::Allocation TensorArena::Allocate(std::int64_t bytes) {
  if (bytes <= 0) return {nullptr, false};
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t rounded = RoundUp(bytes, kArenaGranularity);
  switch (state_) {
    case State::kMeasuring: {
      void* ptr = AlignedHeapAlloc(bytes);
      const std::int64_t id = next_id_++;
      model::MemoryRequest request;
      request.kind = model::MemoryRequest::Kind::kMalloc;
      request.tensor_id = id;
      request.bytes = bytes;
      events_.push_back(std::move(request));
      live_[ptr] = LiveBlock{id, rounded};
      live_bytes_ += rounded;
      if (live_bytes_ > high_water_) high_water_ = live_bytes_;
      return {ptr, true};
    }
    case State::kPlanned: {
      if (!diverged_this_step_) {
        const std::int64_t k = cursor_;
        if (k < static_cast<std::int64_t>(planned_.size()) &&
            planned_[static_cast<std::size_t>(k)].bytes == rounded) {
          ++cursor_;
          const PlannedAlloc& p = planned_[static_cast<std::size_t>(k)];
          if (p.offset + p.bytes > high_water_) {
            high_water_ = p.offset + p.bytes;
          }
          return {slab_ + p.offset, true};
        }
        // The step stopped matching the measured trace (shape change,
        // degradation, early exit last step): heap for the rest of the
        // step, re-measure from the next BeginStep.
        diverged_this_step_ = true;
        ++divergences_;
        Metrics().divergences->Increment();
        MEMO_TRACE_INSTANT("arena_plan_divergence", "train",
                           "allocation sequence diverged from plan");
      }
      ++heap_fallbacks_;
      Metrics().heap_fallbacks->Increment();
      return {AlignedHeapAlloc(bytes), false};
    }
  }
  return {AlignedHeapAlloc(bytes), false};  // unreachable
}

void TensorArena::NoteFree(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(ptr);
  if (it != live_.end()) {
    // Measure-mode heap block (possibly freed after the plan committed).
    // Only current-epoch frees from the scope thread become plan events: a
    // foreign-thread free (async copier) lands at an unpredictable point in
    // the sequence, so its slot is conservatively kept live to the end of
    // the step; stale-epoch blocks (id < 0) are just released.
    if (state_ == State::kMeasuring && it->second.id >= 0 &&
        std::this_thread::get_id() == scope_thread_) {
      model::MemoryRequest request;
      request.kind = model::MemoryRequest::Kind::kFree;
      request.tensor_id = it->second.id;
      events_.push_back(std::move(request));
    }
    if (it->second.id >= 0) live_bytes_ -= it->second.rounded_bytes;
    live_.erase(it);
    std::free(ptr);
    return;
  }
  // Slab pointer: space is reclaimed wholesale at the next BeginStep;
  // individual frees are position bookkeeping only.
}

void TensorArena::CommitPlanLocked() {
  MEMO_TRACE_SCOPE("arena_plan_solve", "train");
  auto instance = solver::DsaInstance::FromRequests(events_,
                                                    /*allow_unmatched=*/true);
  if (!instance.ok()) {
    MEMO_LOG(Warning) << "TensorArena: measured trace rejected by DSA ("
                      << instance.status().message() << "); staying on heap";
    ResetMeasurementLocked();
    return;
  }
  solver::DsaAssignment assignment = SolveDsa(*instance);

  // planned_[k] must be the k-th *allocation* of the step, in order.
  std::unordered_map<std::int64_t, std::int64_t> size_by_id;
  for (const solver::DsaTensor& t : instance->tensors) {
    size_by_id[t.id] = t.size;
  }
  std::vector<PlannedAlloc> planned;
  planned.reserve(size_by_id.size());
  bool usable = true;
  for (const model::MemoryRequest& e : events_) {
    if (e.kind != model::MemoryRequest::Kind::kMalloc) continue;
    auto addr = assignment.address.find(e.tensor_id);
    auto size = size_by_id.find(e.tensor_id);
    if (addr == assignment.address.end() || size == size_by_id.end() ||
        addr->second % kArenaAlignment != 0) {
      usable = false;
      break;
    }
    planned.push_back({addr->second, size->second});
  }
  if (!usable || planned.empty()) {
    MEMO_LOG(Warning)
        << "TensorArena: unusable DSA placement; staying on heap";
    ResetMeasurementLocked();
    return;
  }

  capacity_ = RoundUp(assignment.peak, kArenaAlignment);
  slab_ = static_cast<char*>(AlignedHeapAlloc(capacity_));
  planned_ = std::move(planned);
  planned_peak_ = assignment.peak;
  plan_optimal_ = assignment.proved_optimal;
  cursor_ = 0;
  diverged_this_step_ = false;
  high_water_ = 0;  // restart tracking in planned-offset terms
  state_ = State::kPlanned;
  ResetMeasurementLocked();

  std::ostringstream oss;
  oss << planned_.size() << " allocs, peak " << planned_peak_ << " B"
      << (plan_optimal_ ? " (certified optimal)" : "");
  MEMO_TRACE_INSTANT("arena_plan_committed", "train", oss.str());
  MEMO_LOG(Info) << "TensorArena: planned step slab: " << oss.str();
}

void TensorArena::ResetMeasurementLocked() {
  events_.clear();
  next_id_ = 0;
  live_bytes_ = 0;
  // Blocks still live at a reset were leaked past the step boundary; mark
  // them stale so their eventual frees are not recorded into a new trace.
  for (auto& entry : live_) entry.second.id = -1;
}

void TensorArena::AbandonPlanLocked() {
  if (slab_ != nullptr) std::free(slab_);
  slab_ = nullptr;
  capacity_ = 0;
  planned_.clear();
  planned_peak_ = 0;
  plan_optimal_ = false;
  high_water_ = 0;
  state_ = State::kMeasuring;
  MEMO_TRACE_INSTANT("arena_plan_abandoned", "train",
                     "re-measuring after divergence");
}

void TensorArena::PublishGaugesLocked() {
  Metrics().capacity->Set(static_cast<double>(capacity_));
  Metrics().planned_peak->Set(static_cast<double>(planned_peak_));
  Metrics().high_water->Set(static_cast<double>(high_water_));
}

TensorArena::State TensorArena::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::int64_t TensorArena::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::int64_t TensorArena::planned_peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planned_peak_;
}

std::int64_t TensorArena::high_water_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

bool TensorArena::plan_proved_optimal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_optimal_;
}

std::int64_t TensorArena::heap_fallback_allocs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_fallbacks_;
}

std::int64_t TensorArena::plan_divergences() const {
  std::lock_guard<std::mutex> lock(mu_);
  return divergences_;
}

std::int64_t TensorArena::planned_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planned_steps_;
}

TensorArena* TensorArena::Current() { return g_current_arena; }

ArenaScope::ArenaScope(TensorArena* arena) : previous_(g_current_arena) {
  g_current_arena = arena;
}

ArenaScope::~ArenaScope() { g_current_arena = previous_; }

}  // namespace memo::train
