#include "train/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "common/fingerprint.h"
#include "common/table_printer.h"
#include "train/checkpoint.h"
#include "train/kernels/kernels.h"
#include "train/tensor_arena.h"

namespace memo::train {

SyntheticData::SyntheticData(int vocab, double fidelity, std::uint64_t seed)
    : fidelity_(fidelity), rng_(seed) {
  permutation_.resize(vocab);
  for (int i = 0; i < vocab; ++i) permutation_[i] = i;
  // Fisher-Yates with the deterministic RNG.
  for (int i = vocab - 1; i > 0; --i) {
    const int j = static_cast<int>(rng_.NextBounded(i + 1));
    std::swap(permutation_[i], permutation_[j]);
  }
  last_token_ = static_cast<int>(rng_.NextBounded(vocab));
}

void SyntheticData::NextSequence(int len, std::vector<int>* tokens,
                                 std::vector<int>* targets) {
  const int vocab = static_cast<int>(permutation_.size());
  tokens->resize(len);
  targets->resize(len);
  int current = last_token_;
  for (int i = 0; i < len; ++i) {
    (*tokens)[i] = current;
    const int next = rng_.NextDouble() < fidelity_
                         ? permutation_[current]
                         : static_cast<int>(rng_.NextBounded(vocab));
    (*targets)[i] = next;
    current = next;
  }
  last_token_ = current;
}

double LrSchedule::Multiplier(int iter, int total) const {
  MEMO_CHECK_GT(total, 0);
  const double progress = static_cast<double>(iter) / total;
  if (warmup_fraction > 0.0 && progress < warmup_fraction) {
    return progress / warmup_fraction;
  }
  if (!cosine_decay) return 1.0;
  const double decay_progress =
      (progress - warmup_fraction) / std::max(1e-12, 1.0 - warmup_fraction);
  const double cosine = 0.5 * (1.0 + std::cos(M_PI * decay_progress));
  return min_lr_fraction + (1.0 - min_lr_fraction) * cosine;
}

Status TrainRunOptions::Validate() const {
  // Model fields are named as in MiniGptConfig, backend fields as in
  // BackendOptions.
  const offload::BackendOptions& b = backend;
  const struct {
    bool ok;
    const char* field;
    const char* domain;
    double got;
  } rules[] = {
      {model.layers >= 1, "layers", "at least 1", 1.0 * model.layers},
      {model.hidden >= 1, "hidden", "at least 1", 1.0 * model.hidden},
      {model.heads >= 1, "heads", "at least 1", 1.0 * model.heads},
      // Checked after heads >= 1, so the modulo never divides by zero.
      {model.heads < 1 || model.hidden % model.heads == 0, "heads",
       "a divisor of hidden", 1.0 * model.heads},
      {model.ffn >= 1, "ffn", "at least 1", 1.0 * model.ffn},
      {model.vocab >= 1, "vocab", "at least 1", 1.0 * model.vocab},
      {model.seq >= 1, "seq", "at least 1", 1.0 * model.seq},
      {iterations >= 1, "iterations", "at least 1", 1.0 * iterations},
      {batch >= 1, "batch", "at least 1", 1.0 * batch},
      // A NaN fails every comparison, so the range tests reject it.
      {std::isfinite(alpha) && alpha >= 0.0 && alpha <= 1.0, "alpha",
       "in [0, 1]", alpha},
      {grad_clip >= 0.0, "grad_clip", "at least 0 (0 = no clipping)",
       grad_clip},
      {data_fidelity >= 0.0 && data_fidelity <= 1.0, "data_fidelity",
       "in [0, 1]", data_fidelity},
      {checkpoint_every >= 0, "checkpoint_every",
       "at least 0 (0 = no periodic saves)", 1.0 * checkpoint_every},
      {b.ram_capacity_bytes >= 0, "ram_capacity_bytes",
       "at least 0 (0 = unlimited)", static_cast<double>(b.ram_capacity_bytes)},
      {b.disk.bytes_per_second >= 0.0, "disk.bytes_per_second",
       "at least 0 (0 = unthrottled)", b.disk.bytes_per_second},
      {b.disk.page_bytes > 0, "disk.page_bytes", "positive",
       static_cast<double>(b.disk.page_bytes)},
  };
  for (const auto& rule : rules) {
    if (!rule.ok) {
      return InvalidArgumentError(StrFormat("%s must be %s (got %.10g)",
                                            rule.field, rule.domain,
                                            rule.got));
    }
  }
  if ((checkpoint_every > 0 || resume) && checkpoint_dir.empty()) {
    return InvalidArgumentError(
        "resume and checkpoint_every require checkpoint_dir");
  }
  return OkStatus();
}

namespace {

/// Fingerprint of everything that shapes the numeric trajectory of a run.
/// Deliberately excludes the stash backend and async flag: the activation
/// round trip is bit-exact on every backend, so a checkpoint taken on a
/// tiered run may be resumed on RAM-only (that IS the degradation path).
std::uint64_t ConfigFingerprint(const TrainRunOptions& options) {
  std::string canon;
  const auto add = [&canon](const std::string& key, double value) {
    canon += key + "=" + std::to_string(value) + ";";
  };
  add("layers", options.model.layers);
  add("hidden", options.model.hidden);
  add("heads", options.model.heads);
  add("ffn", options.model.ffn);
  add("vocab", options.model.vocab);
  add("seq", options.model.seq);
  add("policy", static_cast<int>(options.policy));
  add("alpha", options.alpha);
  add("iterations", options.iterations);
  add("batch", options.batch);
  add("grad_clip", options.grad_clip);
  add("warmup", options.lr_schedule.warmup_fraction);
  add("cosine", options.lr_schedule.cosine_decay ? 1 : 0);
  add("min_lr", options.lr_schedule.min_lr_fraction);
  add("seed", static_cast<double>(options.seed));
  add("lr", options.adam.lr);
  add("beta1", options.adam.beta1);
  add("beta2", options.adam.beta2);
  add("eps", options.adam.eps);
  add("fidelity", options.data_fidelity);
  return Fnv1a64(canon.data(), canon.size());
}

/// The RAM-only fallback stash used once the configured backend has failed
/// permanently: unlimited capacity, nothing to spill, nothing left to fail.
offload::BackendOptions DegradedBackend() {
  offload::BackendOptions backend;
  backend.kind = offload::BackendKind::kRam;
  backend.ram_capacity_bytes = 0;
  return backend;
}

/// Per-iteration measurements, committed into the result only when every
/// micro-step of the iteration succeeded (a faulted iteration is re-run
/// from scratch, so its partial stats must not leak into the totals).
struct IterationStats {
  double loss_sum = 0.0;
  std::int64_t peak_stored_bytes = 0;
  std::int64_t recomputed_rows = 0;
  OffloadStats offload_stats;
};

/// Runs the `batch` micro-steps of one iteration: accumulates gradients
/// into `grads` (pre-zeroed by the caller) and stats into `stats`. The
/// sequences are pre-drawn so a re-run replays the identical data.
Status RunIteration(const MiniGpt& model, const MiniGptParams& params,
                    const TrainRunOptions& options,
                    const offload::BackendOptions& backend,
                    const std::vector<std::vector<int>>& batch_tokens,
                    const std::vector<std::vector<int>>& batch_targets,
                    TensorArena* arena, HostStaging* staging,
                    MiniGptParams* grads, IterationStats* stats) {
  // Every tensor temporary of this iteration's micro-steps comes out of the
  // step-scoped arena (measured on the first step, replayed from the DSA
  // plan afterwards). Long-lived state — params, grads, Adam moments,
  // checkpoints — is allocated outside the scope and stays on the heap. A
  // faulted iteration unwinds all scoped tensors and discards its step, so
  // its partial trace never becomes the plan and the degraded re-run's
  // BeginStep measures or replays from the top.
  std::optional<ArenaScope> scope;
  if (arena != nullptr) {
    arena->BeginStep();
    scope.emplace(arena);
  }
  Status status = OkStatus();
  for (int b = 0; b < options.batch && status.ok(); ++b) {
    ActivationStore store(options.policy, options.alpha, options.model.layers,
                          options.async_offload, backend, staging);
    const StatusOr<double> loss = model.TryForwardBackward(
        params, batch_tokens[b], batch_targets[b], &store, grads);
    if (!loss.ok()) {
      status = loss.status();
      continue;  // destroys the store before the step is discarded
    }
    stats->loss_sum += *loss;
    stats->peak_stored_bytes =
        std::max(stats->peak_stored_bytes, store.peak_stored_bytes());
    stats->recomputed_rows += store.recomputed_rows();
    stats->offload_stats += store.offload_stats();
  }
  if (!status.ok() && arena != nullptr) arena->DiscardStep();
  return status;
}

/// RunTraining's body: every tensor, the arena slab and the stash of the
/// run live in this scope.
TrainRunResult TrainInScope(const TrainRunOptions& options) {
  const auto run_start = std::chrono::steady_clock::now();
  MEMO_TRACE_SCOPE("train_run", "train");
  static obs::MetricCounter* iterations_counter =
      obs::MetricsRegistry::Global().counter("train.iterations");
  static obs::MetricHistogram* step_hist =
      obs::MetricsRegistry::Global().histogram("train.step_micros");
  const MiniGpt model(options.model);
  MiniGptParams params = MiniGptParams::Init(options.model, options.seed);
  MiniGptParams grads = MiniGptParams::Init(options.model, options.seed);
  for (Tensor* g : grads.Flat()) g->Fill(0.0f);
  Adam adam(options.adam);
  SyntheticData data(options.model.vocab, options.data_fidelity,
                     options.seed ^ 0x5EEDDA7AULL);
  TensorArena arena;
  TensorArena* arena_ptr = options.use_arena ? &arena : nullptr;
  // The stores' transfer staging outlives every micro-step, so it lives
  // here, outside the arena scope.
  HostStaging staging;

  TrainRunResult result;
  const std::uint64_t fingerprint = ConfigFingerprint(options);
  int start_iter = 0;

  if (options.resume && !options.checkpoint_dir.empty()) {
    StatusOr<CheckpointState> loaded =
        LoadLatestValidCheckpoint(options.checkpoint_dir, fingerprint);
    if (loaded.ok()) {
      CheckpointState state = std::move(loaded).value();
      const std::vector<Tensor*> flat = params.Flat();
      if (state.params.size() != flat.size()) {
        result.status = InternalError(
            "checkpoint parameter count does not match the model");
        return result;
      }
      for (std::size_t i = 0; i < flat.size(); ++i) {
        *flat[i] = std::move(state.params[i]);
      }
      adam.RestoreState(static_cast<int>(state.adam_step),
                        std::move(state.adam_m), std::move(state.adam_v));
      data.RestoreStreamState(state.data_rng_state,
                              static_cast<int>(state.last_token));
      result.losses = std::move(state.losses);
      result.grad_norms = std::move(state.grad_norms);
      result.degraded = state.degraded;
      result.resumed_from_step = state.step;
      start_iter = static_cast<int>(state.step);
      MEMO_TRACE_INSTANT("checkpoint_resume", "fault",
                         "resumed from step " + std::to_string(state.step));
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      result.status = loaded.status();
      return result;
    }
    // kNotFound: no checkpoint yet — a fresh start, not an error.
  }

  // The backend in use: switched at most once, to the RAM fallback, when
  // the configured backend fails permanently (degradation is sticky).
  offload::BackendOptions active_backend =
      result.degraded ? DegradedBackend() : options.backend;

  // Moment buffers must exist before the first arena-scoped iteration:
  // created lazily inside the scope they would land in (and permanently
  // widen) the per-step plan despite living for the whole run.
  adam.EnsureState(params.Flat());

  std::vector<std::vector<int>> batch_tokens(options.batch);
  std::vector<std::vector<int>> batch_targets(options.batch);
  for (int iter = start_iter; iter < options.iterations; ++iter) {
    MEMO_TRACE_SCOPE_ARG("iteration", "train", "iter", iter);
    const auto step_start = std::chrono::steady_clock::now();
    // Sequences are drawn before the micro-steps so a faulted iteration
    // can be re-run on the fallback backend with identical data.
    for (int b = 0; b < options.batch; ++b) {
      data.NextSequence(options.model.seq, &batch_tokens[b],
                        &batch_targets[b]);
    }
    for (Tensor* g : grads.Flat()) g->Fill(0.0f);
    IterationStats stats;
    Status st = RunIteration(model, params, options, active_backend,
                             batch_tokens, batch_targets, arena_ptr, &staging,
                             &grads, &stats);
    if (!st.ok() && options.allow_degraded && !result.degraded) {
      // The configured backend died (retries already ran inside the stash
      // layers). Degrade: drop to the RAM-only stash and re-run the whole
      // iteration from scratch — gradients may hold a partial accumulation.
      MEMO_TRACE_INSTANT("train_degraded", "fault", st.ToString());
      obs::MetricsRegistry::Global().counter("train.degraded_runs")->Add(1);
      result.degraded = true;
      active_backend = DegradedBackend();
      for (Tensor* g : grads.Flat()) g->Fill(0.0f);
      stats = IterationStats{};
      st = RunIteration(model, params, options, active_backend, batch_tokens,
                        batch_targets, arena_ptr, &staging, &grads, &stats);
    }
    if (!st.ok()) {
      result.status = st;
      break;
    }
    result.peak_stored_bytes =
        std::max(result.peak_stored_bytes, stats.peak_stored_bytes);
    result.recomputed_rows += stats.recomputed_rows;
    result.offload_stats += stats.offload_stats;
    const double loss_sum = stats.loss_sum;
    // One rounded multiply per element at every SIMD level, so the scaled
    // gradients are bit-identical to the plain loop.
    const kernels::KernelTable& K = kernels::Active();
    if (options.batch > 1) {
      const float scale = 1.0f / static_cast<float>(options.batch);
      for (Tensor* g : grads.Flat()) K.scale(g->data(), scale, g->size());
    }

    if (options.grad_clip > 0.0) {
      double norm_sq = 0.0;
      for (Tensor* g : grads.Flat()) {
        for (std::int64_t i = 0; i < g->size(); ++i) {
          norm_sq += static_cast<double>(g->data()[i]) * g->data()[i];
        }
      }
      const double norm = std::sqrt(norm_sq);
      result.grad_norms.push_back(norm);
      if (norm > options.grad_clip) {
        const float scale = static_cast<float>(options.grad_clip / norm);
        for (Tensor* g : grads.Flat()) K.scale(g->data(), scale, g->size());
      }
    }

    Adam::Options step_options = options.adam;
    step_options.lr *=
        options.lr_schedule.Multiplier(iter, options.iterations);
    adam.set_options(step_options);
    {
      MEMO_TRACE_SCOPE("optim_step", "train");
      adam.Step(params.Flat(), grads.Flat());
    }
    result.losses.push_back(loss_sum / options.batch);
    iterations_counter->Increment();
    step_hist->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - step_start)
                          .count());

    if (!options.checkpoint_dir.empty() && options.checkpoint_every > 0 &&
        (iter + 1) % options.checkpoint_every == 0) {
      CheckpointState state;
      state.config_fingerprint = fingerprint;
      state.step = iter + 1;
      state.data_rng_state = data.rng_state();
      state.last_token = data.last_token();
      state.adam_step = adam.step_count();
      state.degraded = result.degraded;
      state.losses = result.losses;
      state.grad_norms = result.grad_norms;
      for (Tensor* p : params.Flat()) state.params.push_back(*p);
      state.adam_m = adam.first_moments();
      state.adam_v = adam.second_moments();
      const Status saved = SaveCheckpoint(options.checkpoint_dir, state);
      if (!saved.ok()) {
        // Losing checkpoint durability defeats the point of asking for it:
        // stop with the error instead of running on unprotected.
        result.status = saved;
        break;
      }
      ++result.checkpoints_written;
    }
  }
  if (options.use_arena) {
    result.arena_planned_peak_bytes = arena.planned_peak_bytes();
    result.arena_high_water_bytes = arena.high_water_bytes();
    result.arena_planned_steps = arena.planned_steps();
    result.arena_heap_fallback_allocs = arena.heap_fallback_allocs();
    result.arena_plan_divergences = arena.plan_divergences();
    result.arena_plan_proved_optimal = arena.plan_proved_optimal();
  }
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - run_start)
                            .count();
  return result;
}

}  // namespace

TrainRunResult RunTraining(const TrainRunOptions& options) {
  if (Status valid = options.Validate(); !valid.ok()) {
    TrainRunResult rejected;
    rejected.status = std::move(valid);
    return rejected;
  }
  TrainRunResult result = TrainInScope(options);
#ifdef __GLIBC__
  // The first (measuring) step serves every step temporary from the heap
  // before the arena plan exists. glibc keeps those pages once they are
  // freed, and fragmentation makes the retained heap grow with every run in
  // a long-lived process; hand the free pages back now that the run is over.
  malloc_trim(0);
#endif
  return result;
}

}  // namespace memo::train
