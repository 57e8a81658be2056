#include "train/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "common/fingerprint.h"
#include "common/table_printer.h"
#include "train/adam.h"
#include "train/checkpoint.h"
#include "train/tensor_arena.h"

namespace memo::train {

SyntheticData::SyntheticData(int vocab, std::uint64_t seed) : rng_(seed) {
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
    const int next = rng_.NextDouble() < kFidelity
                         ? permutation_[current]
                         : static_cast<int>(rng_.NextBounded(vocab));
    (*targets)[i] = next;
    current = next;
  }
  last_token_ = current;
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
      // A NaN fails every comparison, so the range tests reject it.
      {std::isfinite(alpha) && alpha >= 0.0 && alpha <= 1.0, "alpha",
       "in [0, 1]", alpha},
      {checkpoint_every >= 0, "checkpoint_every",
       "at least 0 (0 = no periodic saves)", 1.0 * checkpoint_every},
      {b.ram_capacity_bytes >= 0, "ram_capacity_bytes",
       "at least 0 (0 = unlimited)", static_cast<double>(b.ram_capacity_bytes)},
      {b.disk.bytes_per_second == 0.0 ||
           b.disk.bytes_per_second >= offload::kMinDiskBytesPerSecond,
       "disk.bytes_per_second", "0 (unthrottled) or at least 1e6 (1 MB/s)",
       b.disk.bytes_per_second},
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
/// The batch, clipping, LR-schedule, optimizer and data keys hold
/// constants; they stay so that checkpoints written by builds where these
/// were options keep their fingerprint and still resume.
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
  add("batch", TrainRunOptions::batch);
  add("grad_clip", 0.0);
  add("warmup", 0.0);
  add("cosine", 0);
  add("min_lr", 0.1);
  add("seed", static_cast<double>(options.seed));
  add("lr", Adam::kLr);
  add("beta1", Adam::kBeta1);
  add("beta2", Adam::kBeta2);
  add("eps", Adam::kEps);
  add("fidelity", SyntheticData::kFidelity);
  return Fnv1a64(canon.data(), canon.size());
}

/// The run's activation store, on the configured backend or, once the run
/// has degraded, on the RAM-only fallback (default BackendOptions: no cap,
/// nothing to spill, nothing left to fail).
std::unique_ptr<ActivationStore> MakeStore(const TrainRunOptions& options,
                                           bool degraded) {
  return std::make_unique<ActivationStore>(
      options.policy, options.alpha, options.model.layers,
      options.async_offload,
      degraded ? offload::BackendOptions{} : options.backend);
}

/// OK when `state`, a checksum-valid checkpoint with this run's
/// fingerprint, fits the run: the checksum proves the bytes are the ones
/// written, not that they suit this model. Each parameter has the model's
/// shape, and so does each Adam moment unless no step has made them yet;
/// the stream's last token is in the vocabulary; the step is within the
/// run, with one loss and one Adam step per step. Otherwise INTERNAL
/// naming the field.
Status CheckResumable(const CheckpointState& state,
                      const std::vector<Tensor*>& params,
                      const TrainRunOptions& options) {
  const std::size_t n = params.size();
  const bool moments = !state.adam_m.empty() || !state.adam_v.empty();
  if (state.params.size() != n ||
      (moments && (state.adam_m.size() != n || state.adam_v.size() != n))) {
    return InternalError(
        "checkpoint parameter or moment count does not match the model");
  }
  for (const auto& [field, tensors] : {std::pair{"params", &state.params},
                                       std::pair{"adam_m", &state.adam_m},
                                       std::pair{"adam_v", &state.adam_v}}) {
    for (std::size_t i = 0; i < tensors->size(); ++i) {
      if ((*tensors)[i].rows() != params[i]->rows() ||
          (*tensors)[i].cols() != params[i]->cols()) {
        return InternalError(StrFormat(
            "checkpoint %s[%zu] does not have its parameter's shape", field,
            i));
      }
    }
  }
  if (state.last_token < 0 || state.last_token >= options.model.vocab) {
    return InternalError(StrFormat(
        "checkpoint last_token %lld is not in [0, %d)",
        static_cast<long long>(state.last_token), options.model.vocab));
  }
  if (state.step < 0 || state.step > options.iterations ||
      state.losses.size() != static_cast<std::size_t>(state.step) ||
      state.adam_step != state.step) {
    return InternalError(StrFormat(
        "checkpoint step %lld (%zu losses, adam_step %lld) does not fit %d "
        "iterations",
        static_cast<long long>(state.step), state.losses.size(),
        static_cast<long long>(state.adam_step), options.iterations));
  }
  return OkStatus();
}

/// Runs one iteration's forward and backward over the sequence `tokens`
/// through the run's `store`, zeroing `grads` and accumulating into them.
/// The sequence is pre-drawn so a re-run replays the identical data. On a
/// fault the store is destroyed, and with it the tensors of the step it
/// held, before the step is discarded.
StatusOr<double> RunIteration(const MiniGpt& model, const MiniGptParams& params,
                              const std::vector<int>& tokens,
                              const std::vector<int>& targets,
                              TensorArena* arena,
                              std::unique_ptr<ActivationStore>* store,
                              MiniGptParams* grads) {
  FillZeros(grads->Flat());
  // Every tensor temporary of this iteration comes out of the step-scoped
  // arena (measured on the first step, replayed from the DSA plan
  // afterwards); params, grads, Adam moments, checkpoints and the store's
  // staging stay on the heap. A faulted step is discarded, so its partial
  // trace never becomes the plan the degraded re-run measures or replays.
  std::optional<ArenaScope> scope;
  if (arena != nullptr) {
    arena->BeginStep();
    scope.emplace(arena);
  }
  StatusOr<double> loss =
      model.TryForwardBackward(params, tokens, targets, store->get(), grads);
  if (!loss.ok()) {
    store->reset();
    if (arena != nullptr) arena->DiscardStep();
  }
  return loss;
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
  MiniGptParams params;
  MiniGptParams grads;
  Adam adam;
  SyntheticData data(options.model.vocab, options.seed ^ 0x5EEDDA7AULL);
  TensorArena arena;
  TensorArena* arena_ptr = options.use_arena ? &arena : nullptr;

  TrainRunResult result;
  const std::uint64_t fingerprint = ConfigFingerprint(options);
  int start_iter = 0;

  {
    // Start-up: the weights (drawn on the pool, or read from a checkpoint),
    // zero gradients and zero Adam moments.
    MEMO_TRACE_SCOPE("train_init", "train");
    if (options.resume && !options.checkpoint_dir.empty()) {
      StatusOr<CheckpointState> loaded =
          LoadLatestValidCheckpoint(options.checkpoint_dir, fingerprint);
      if (loaded.ok()) {
        CheckpointState state = std::move(loaded).value();
        // Every tensor is replaced by the checkpoint's, so none is drawn.
        params = MiniGptParams::Uninitialized(options.model);
        const std::vector<Tensor*> flat = params.Flat();
        result.status = CheckResumable(state, flat, options);
        if (!result.status.ok()) return result;
        for (std::size_t i = 0; i < flat.size(); ++i) {
          *flat[i] = std::move(state.params[i]);
        }
        adam.RestoreState(static_cast<int>(state.adam_step),
                          std::move(state.adam_m), std::move(state.adam_v));
        data.RestoreStreamState(state.data_rng_state,
                                static_cast<int>(state.last_token));
        result.losses = std::move(state.losses);
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
    if (result.resumed_from_step < 0) {
      params = MiniGptParams::Init(options.model, options.seed);
    }
    grads = MiniGptParams::Zeros(options.model);
    // Moment buffers must exist before the first arena-scoped iteration:
    // created lazily inside the scope they would land in (and permanently
    // widen) the per-step plan despite living for the whole run.
    adam.EnsureState(params.Flat());
  }

  // The run's one store, made after the arena so its tensors go back
  // first; a permanent fault of its backend replaces it once (degradation
  // is sticky, across resumes too).
  std::unique_ptr<ActivationStore> store = MakeStore(options, result.degraded);
  // The result as of the replaced store's last completed step, whose stash
  // totals the store in use adds to.
  TrainRunResult replaced;

  std::vector<int> tokens;
  std::vector<int> targets;
  for (int iter = start_iter; iter < options.iterations; ++iter) {
    MEMO_TRACE_SCOPE_ARG("iteration", "train", "iter", iter);
    const auto step_start = std::chrono::steady_clock::now();
    // The sequence is drawn before the step so a faulted iteration can be
    // re-run on the fallback backend with identical data.
    data.NextSequence(options.model.seq, &tokens, &targets);
    StatusOr<double> loss = RunIteration(model, params, tokens, targets,
                                         arena_ptr, &store, &grads);
    if (!loss.ok() && options.allow_degraded && !result.degraded) {
      // The configured backend died (retries already ran inside the stash
      // layers) and took its store with it: degrade, and re-run the whole
      // iteration from scratch on a RAM-only store.
      MEMO_TRACE_INSTANT("train_degraded", "fault", loss.status().ToString());
      obs::MetricsRegistry::Global().counter("train.degraded_runs")->Add(1);
      result.degraded = true;
      replaced = result;
      store = MakeStore(options, /*degraded=*/true);
      loss = RunIteration(model, params, tokens, targets, arena_ptr, &store,
                          &grads);
    }
    if (!loss.ok()) {
      result.status = loss.status();
      break;
    }
    // Only completed iterations count: a faulted one's stats never do.
    result.losses.push_back(*loss);
    result.recomputed_rows =
        replaced.recomputed_rows + store->recomputed_rows();
    result.peak_stored_bytes =
        std::max(replaced.peak_stored_bytes, store->peak_stored_bytes());
    result.offload_stats = replaced.offload_stats;
    result.offload_stats += store->offload_stats();
    {
      MEMO_TRACE_SCOPE("optim_step", "train");
      adam.Step(params.Flat(), grads.Flat());
    }
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
