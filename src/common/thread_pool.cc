#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace memo {

namespace {

/// Set while a thread is executing chunks of some loop; a ParallelFor
/// issued from inside a chunk would need a second pass over the shared
/// queue while its outer loop still holds the caller — run it inline
/// instead (the reentrancy guard of the determinism contract).
thread_local bool t_inside_parallel_region = false;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Worker pinning policy: on by default on multi-core Linux hosts when the
/// pool fits the machine, forced by MEMO_AFFINITY=1, disabled by
/// MEMO_AFFINITY=0 (or anywhere pinning could oversubscribe a core).
bool ShouldPinWorkers(int threads) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (const char* env = std::getenv("MEMO_AFFINITY")) {
    return std::atoi(env) != 0 && hw > 1;
  }
  return hw > 1 && static_cast<unsigned>(threads) <= hw;
#else
  (void)threads;
  return false;
#endif
}

}  // namespace

/// One blocking ParallelFor/RunTasks invocation. Shared between the caller
/// and any workers that joined in; `fn` points at the caller's stack and is
/// only invoked for chunks claimed before the caller saw `done == chunks`.
struct ThreadPool::LoopState {
  std::int64_t begin = 0;
  std::int64_t grain = 1;
  std::int64_t end = 0;
  std::int64_t chunks = 0;
  const std::function<void(std::int64_t, std::int64_t, std::int64_t)>* fn =
      nullptr;

  std::atomic<std::int64_t> next{0};  // next unclaimed chunk ordinal
  std::atomic<std::int64_t> done{0};  // chunks finished (or skipped)
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;  // first exception, under mu
};

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  // A brief spin before each cv wait lets workers catch the next loop of a
  // back-to-back op sequence without a futex round-trip; on a single
  // hardware thread the spin would only steal cycles from the caller that
  // is trying to produce that loop, so it is disabled there.
  spin_rounds_ = std::thread::hardware_concurrency() > 1 ? 2048 : 0;
  pin_workers_ = ShouldPinWorkers(threads);
  workers_.reserve(threads - 1);
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    shutdown_flag_.store(true, std::memory_order_relaxed);
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerMain(int worker_index) {
  MEMO_TRACE_SET_THREAD_NAME("pool-worker");
#if defined(__linux__)
  if (pin_workers_) {
    const unsigned hw = std::thread::hardware_concurrency();
    cpu_set_t set;
    CPU_ZERO(&set);
    // The caller keeps core 0 (wherever the OS put it); workers take the
    // next cores round-robin so repeated loops land each worker on the same
    // cache every time.
    CPU_SET((static_cast<unsigned>(worker_index) + 1u) % hw, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  for (;;) {
    std::shared_ptr<LoopState> loop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_.empty() && !shutdown_ && spin_rounds_ > 0) {
        lock.unlock();
        for (int r = 0; r < spin_rounds_; ++r) {
          if (pending_count_.load(std::memory_order_relaxed) > 0 ||
              shutdown_flag_.load(std::memory_order_relaxed)) {
            break;
          }
          CpuRelax();
        }
        lock.lock();
      }
      wake_.wait(lock, [this] { return shutdown_ || !pending_.empty(); });
      if (shutdown_ && pending_.empty()) return;
      loop = pending_.front();
      // A loop whose chunks are all claimed is spent — drop it and look for
      // the next one. Otherwise keep it queued so other idle workers can
      // also join in; RunChunks drops out once nothing is unclaimed.
      if (loop->next.load(std::memory_order_relaxed) >= loop->chunks) {
        pending_.pop_front();
        pending_count_.store(static_cast<int>(pending_.size()),
                             std::memory_order_relaxed);
        continue;
      }
    }
    t_inside_parallel_region = true;
    {
      // One span per participation (not per chunk): visible pool activity
      // without per-chunk overhead on the GEMM hot path.
      MEMO_TRACE_SCOPE("pool_run", "pool");
      RunChunks(loop.get());
    }
    t_inside_parallel_region = false;
  }
}

void ThreadPool::RunChunks(LoopState* state) {
  for (;;) {
    const std::int64_t chunk =
        state->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state->chunks) return;
    if (!state->cancelled.load(std::memory_order_relaxed)) {
      const std::int64_t lo = state->begin + chunk * state->grain;
      const std::int64_t hi = std::min(state->end, lo + state->grain);
      try {
        (*state->fn)(chunk, lo, hi);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->error) state->error = std::current_exception();
        }
        state->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->chunks) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->all_done.notify_all();
    }
  }
}

void ThreadPool::ParallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  MEMO_CHECK_GE(grain, 1);
  const std::int64_t chunks = (end - begin + grain - 1) / grain;

  // Serial fallback, single chunk, and nested calls all run inline: same
  // chunk boundaries, same floating-point behaviour, no queue round-trip.
  // Non-nested multi-chunk inline loops still get a pool span so
  // single-core traces show where parallel regions would run (nested calls
  // stay silent: their time belongs to the enclosing region's span).
  if (workers_.empty() || chunks == 1 || t_inside_parallel_region) {
    if (chunks > 1 && !t_inside_parallel_region) {
      MEMO_TRACE_SCOPE_ARG("pool_run", "pool", "chunks", chunks);
      for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
        const std::int64_t lo = begin + chunk * grain;
        fn(chunk, lo, std::min(end, lo + grain));
      }
      return;
    }
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
      const std::int64_t lo = begin + chunk * grain;
      fn(chunk, lo, std::min(end, lo + grain));
    }
    return;
  }

  static obs::MetricCounter* loops_counter =
      obs::MetricsRegistry::Global().counter("pool.parallel_loops");
  loops_counter->Increment();

  auto state = std::make_shared<LoopState>();
  state->begin = begin;
  state->grain = grain;
  state->end = end;
  state->chunks = chunks;
  state->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(state);
    pending_count_.store(static_cast<int>(pending_.size()),
                         std::memory_order_relaxed);
  }
  // Wake only as many workers as there are chunks beyond the caller's own:
  // a 2-chunk loop on a 16-lane pool used to stampede 15 workers at the
  // claim counter just to find nothing left.
  const std::int64_t extra =
      std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()),
                             chunks - 1);
  if (extra >= static_cast<std::int64_t>(workers_.size())) {
    wake_.notify_all();
  } else {
    for (std::int64_t i = 0; i < extra; ++i) wake_.notify_one();
  }

  // The caller is a full participant — with N-1 workers this yields N lanes.
  t_inside_parallel_region = true;
  {
    MEMO_TRACE_SCOPE_ARG("pool_run", "pool", "chunks", chunks);
    RunChunks(state.get());
  }
  t_inside_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(lock, [&state] {
      return state->done.load(std::memory_order_acquire) == state->chunks;
    });
  }
  {
    // Unlink the spent loop if no worker got to it first; stragglers that
    // still hold a reference only probe `next` and immediately drop out.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->get() == state.get()) {
        pending_.erase(it);
        break;
      }
    }
    pending_count_.store(static_cast<int>(pending_.size()),
                         std::memory_order_relaxed);
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::ParallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ParallelForChunks(begin, end, grain,
                    [&fn](std::int64_t, std::int64_t lo, std::int64_t hi) {
                      fn(lo, hi);
                    });
}

void ThreadPool::ParallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const LoopHint& hint,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  MEMO_CHECK_GE(grain, 1);
  const double total_flops =
      hint.flops_per_item * static_cast<double>(end - begin);
  if (total_flops > 0.0 && total_flops < kMinParallelFlops) {
    // The whole loop is cheaper than one dispatch round-trip: run it as a
    // single inline call. Results are identical by the chunk-boundary
    // independence contract; this is what makes oversubscribed pools (and
    // pools on small problems) stop losing to the serial baseline.
    static obs::MetricCounter* inline_counter =
        obs::MetricsRegistry::Global().counter("pool.hint_inline_loops");
    inline_counter->Increment();
    // No span: the counter keeps the count, and a span per inline loop
    // would grow a recorded trace with the loop count, not with the work.
    fn(begin, end);
    return;
  }
  std::int64_t eff_grain = grain;
  const std::int64_t chunks = (end - begin + grain - 1) / grain;
  if (chunks > kMaxHintChunks) {
    eff_grain = grain * ((chunks + kMaxHintChunks - 1) / kMaxHintChunks);
  }
  ParallelFor(begin, end, eff_grain, fn);
}

void ThreadPool::RunTasks(const std::vector<std::function<void()>>& tasks) {
  ParallelFor(0, static_cast<std::int64_t>(tasks.size()), 1,
              [&tasks](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) tasks[i]();
              });
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("MEMO_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::Global() {
  auto& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *slot;
}

void ThreadPool::SetGlobalThreads(int threads) {
  GlobalPoolSlot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace memo
