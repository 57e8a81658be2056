// memo_cli — command-line front end for the MEMO library.
//
//   memo_cli run    --model 7B --seq 1024K --gpus 8 [--system memo]
//                   [--tp N --cp N --pp N --dp N --sp N] [--alpha X]
//   memo_cli plan   --model 7B --seq 512K --gpus 8 --tp 4 --cp 2
//                   [--out plan.txt]
//   memo_cli maxseq --model 7B --gpus 8 [--system memo] [--step 128K]
//   memo_cli alpha  --model 7B --seq 512K --gpus 8 --tp 4 --cp 2
//   memo_cli train  --layers 4 --seq 64 --alpha 0.5 --backend tiered
//
// `run` auto-tunes the parallelism strategy unless explicit degrees are
// given. Sequence lengths accept a K suffix (1024-token units). The
// planning commands (run, plan, maxseq, alpha, query) share one set of
// request flags: the fields of serve/protocol.h, spelled with '-' for '_'.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/retry.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/job_profiler.h"
#include "core/plan_request.h"
#include "core/report.h"
#include "model/activation_spec.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "planner/plan_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/socket_server.h"
#include "trace/convert.h"
#include "trace/replay.h"
#include "train/trainer.h"

namespace {

using memo::core::IterationResult;

void Usage();

/// True for the flags that may appear without a value (toggles documented
/// as bare `--async` etc.); a bare occurrence reads as "1".
bool IsBooleanFlag(const char* name) {
  return std::strcmp(name, "async") == 0 ||
         std::strcmp(name, "resume") == 0 ||
         std::strcmp(name, "full-recompute") == 0 ||
         std::strcmp(name, "raw") == 0 ||
         std::strcmp(name, "json") == 0 ||
         std::strcmp(name, "no-planner") == 0 ||
         std::strcmp(name, "no-retry") == 0;
}

/// Minimal --key value flag parser. Malformed numeric values and dangling
/// flags are uniform protocol errors: one-line message + usage, exit 2.
/// Boolean toggles (IsBooleanFlag) may be given bare, with or without an
/// explicit 0/1 value.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected a --flag, got %s\n", argv[i]);
        Usage();
        std::exit(2);
      }
      const char* name = argv[i] + 2;
      const bool next_is_flag =
          i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0;
      if (IsBooleanFlag(name) && next_is_flag) {
        values_[name] = "1";
        i += 1;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s is missing a value\n", argv[i]);
        Usage();
        std::exit(2);
      }
      values_[name] = argv[i + 1];
      i += 2;
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const long value = std::strtol(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0') {
      MalformedFlag(key, "an integer");
    }
    return static_cast<int>(value);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || *end != '\0') {
      MalformedFlag(key, "a number");
    }
    return value;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// "512K" -> 512 * 1024 tokens; plain numbers pass through.
  std::int64_t GetSeq(const std::string& key, std::int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::int64_t tokens = 0;
    if (!memo::ParseSeqLen(it->second, &tokens)) {
      MalformedFlag(key, "a sequence length (e.g. 512K)");
    }
    return tokens;
  }

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  [[noreturn]] void MalformedFlag(const std::string& key,
                                  const char* expected) const {
    std::fprintf(stderr, "--%s must be %s (got \"%s\")\n", key.c_str(),
                 expected, values_.at(key).c_str());
    Usage();
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

/// Exits with a one-line error when `key` is present but not a positive
/// number. A zero or negative capacity/bandwidth would silently disable a
/// tier (or divide by zero deep in the solver); fail loudly up front.
void RequirePositiveIfSet(const Flags& flags, const std::string& key) {
  if (!flags.Has(key) || flags.GetDouble(key, 0.0) > 0.0) return;
  std::fprintf(stderr, "--%s must be a positive number (got \"%s\")\n",
               key.c_str(), flags.Get(key, "").c_str());
  std::exit(2);
}

/// A size flag given in `unit` bytes (--ram-cap-mib, --capacity-gib, ...)
/// as a byte count, `fallback_bytes` when absent. Exits 2 naming the flag
/// unless the value is finite, at least one byte (or zero, when `zero_ok`)
/// and below 2^63 bytes: casting 1e300 MiB to a byte count would be
/// undefined behaviour.
std::int64_t SizeFlagBytes(const Flags& flags, const std::string& key,
                           std::int64_t unit, bool zero_ok,
                           std::int64_t fallback_bytes) {
  if (!flags.Has(key)) return fallback_bytes;
  const double bytes =
      flags.GetDouble(key, 0.0) * static_cast<double>(unit);
  const bool in_range = zero_ok ? bytes >= 0.0 : bytes >= 1.0;
  if (in_range && bytes < 0x1p63) return static_cast<std::int64_t>(bytes);
  std::fprintf(stderr,
               "--%s must be a %s number below 2^63 bytes (got \"%s\")\n",
               key.c_str(), zero_ok ? "non-negative" : "positive",
               flags.Get(key, "").c_str());
  std::exit(2);
}

/// Exits when the file named by `key` cannot be created or overwritten:
/// the file exists read-only, or its directory is missing or unwritable.
/// Checked before the work starts, so a long run cannot die at the final
/// write of its trace/metrics/checkpoint output.
void RequireWritableFileIfSet(const Flags& flags, const std::string& key) {
  const std::string path = flags.Get(key, "");
  if (path.empty()) return;
  if (::access(path.c_str(), F_OK) == 0) {
    if (::access(path.c_str(), W_OK) == 0) return;
    std::fprintf(stderr, "--%s %s is not writable\n", key.c_str(),
                 path.c_str());
    std::exit(2);
  }
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  if (::access(dir.c_str(), W_OK) != 0) {
    std::fprintf(stderr,
                 "--%s %s: directory %s is missing or not writable\n",
                 key.c_str(), path.c_str(), dir.c_str());
    std::exit(2);
  }
}

memo::offload::BackendOptions ParseBackend(const Flags& flags) {
  RequirePositiveIfSet(flags, "disk-gbps");
  memo::offload::BackendOptions backend;
  const std::string name = flags.Get("backend", "ram");
  if (name == "ram") {
    backend.kind = memo::offload::BackendKind::kRam;
  } else if (name == "disk") {
    backend.kind = memo::offload::BackendKind::kDisk;
  } else if (name == "tiered") {
    backend.kind = memo::offload::BackendKind::kTiered;
  } else {
    std::fprintf(stderr, "unknown backend %s (ram|disk|tiered)\n",
                 name.c_str());
    std::exit(2);
  }
  // A tiered stash with unlimited RAM never spills, which makes it
  // indistinguishable from --backend ram. Default the RAM tier to a small
  // cap so `train --backend tiered` actually exercises the disk tier; the
  // loss is bit-identical regardless of where the bytes land.
  const bool tiered = backend.kind == memo::offload::BackendKind::kTiered;
  backend.ram_capacity_bytes =
      SizeFlagBytes(flags, "ram-cap-mib", memo::kMiB, /*zero_ok=*/false,
                    tiered ? 256 * memo::kKiB : 0);
  backend.disk.bytes_per_second =
      flags.GetDouble("disk-gbps", 0.0) * memo::kGBps;
  return backend;
}

/// Observability sinks shared by the commands: --trace-out enables the
/// process-wide recorder for the command's duration and serializes the
/// Chrome-trace JSON on Finish(); --metrics-out snapshots the metrics
/// registry the same way. Both are off (and cost one atomic load per
/// instrumented site) unless the flag is given.
class ObsOutputs {
 public:
  explicit ObsOutputs(const Flags& flags)
      : trace_path_(flags.Get("trace-out", "")),
        metrics_path_(flags.Get("metrics-out", "")) {
    RequireWritableFileIfSet(flags, "trace-out");
    RequireWritableFileIfSet(flags, "metrics-out");
    if (!trace_path_.empty()) {
      memo::obs::TraceRecorder::Global().Clear();
      memo::obs::TraceRecorder::Global().Enable();
      memo::obs::TraceRecorder::Global().SetThreadName("main");
    }
    if (!metrics_path_.empty()) memo::obs::MetricsRegistry::Global().Reset();
  }

  /// Writes the requested outputs; returns 0 on success, 1 on I/O failure.
  int Finish() {
    int rc = 0;
    if (!trace_path_.empty()) {
      memo::obs::TraceRecorder::Global().Disable();
      std::string error;
      if (memo::obs::TraceRecorder::Global().WriteJson(trace_path_,
                                                       &error)) {
        std::printf("trace written to %s (%lld events)\n",
                    trace_path_.c_str(),
                    static_cast<long long>(
                        memo::obs::TraceRecorder::Global().event_count()));
      } else {
        std::fprintf(stderr, "%s\n", error.c_str());
        rc = 1;
      }
    }
    if (!metrics_path_.empty()) {
      std::string error;
      if (memo::obs::MetricsRegistry::Global().WriteJson(metrics_path_,
                                                         &error)) {
        std::printf("metrics written to %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "%s\n", error.c_str());
        rc = 1;
      }
    }
    return rc;
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

/// The flags as planning-request fields: each flag is its wire field with
/// '-' for '_' (--host-gib is host_gib); a non-null `kind` overrides
/// --kind. The reader ignores the flags that are not request fields.
memo::serve::PlanRequestFields RequestFields(const Flags& flags,
                                             const char* kind) {
  memo::serve::PlanRequestFields fields;
  for (const auto& [name, value] : flags.values()) {
    std::string key = name;
    std::replace(key.begin(), key.end(), '-', '_');
    fields[key] = value;
  }
  if (kind != nullptr) fields["kind"] = kind;
  return fields;
}

/// Exits 2 with a Validate() rejection spelled in flags: the message starts
/// with the field name (host_gib is --host-gib), and any other snake_case
/// field name in it becomes its flag too.
[[noreturn]] void ExitNamingTheFlag(const memo::Status& rejected) {
  std::istringstream words(rejected.message());
  std::string out;
  std::string word;
  while (words >> word) {
    const bool field_name =
        word.find('_') != std::string::npos &&
        word.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") ==
            std::string::npos;
    if (out.empty() || field_name) {
      std::replace(word.begin(), word.end(), '_', '-');
      word = "--" + word;
    }
    out += (out.empty() ? "" : " ") + word;
  }
  std::fprintf(stderr, "%s\n", out.c_str());
  Usage();
  std::exit(2);
}

/// Reads the flags with the protocol's own request reader, so the CLI and
/// a `serve` instance build the same request, fingerprint included. A
/// rejected field exits 2 naming its flag, like any other malformed flag.
memo::core::PlanRequest ReadPlanRequest(const Flags& flags,
                                        const char* kind) {
  auto request =
      memo::serve::ParsePlanRequestFields(RequestFields(flags, kind));
  if (!request.ok()) ExitNamingTheFlag(request.status());
  return *request;
}

/// The request `plan` and `alpha` profile: the one `run` executes for the
/// same flags. Both report MEMO's profile, so another --system exits 2
/// naming the flag.
memo::core::PlanRequest ReadProfileRequest(const Flags& flags) {
  memo::core::PlanRequest request = ReadPlanRequest(flags, "strategy");
  if (request.system != memo::parallel::SystemKind::kMemo) {
    ExitNamingTheFlag(memo::InvalidArgumentError(memo::StrFormat(
        "system must be memo: plan and alpha profile MEMO (got %s)",
        memo::parallel::SystemKindToString(request.system))));
  }
  return request;
}

void PrintResult(const IterationResult& it, const memo::model::ModelConfig& m) {
  memo::core::IterationReportTable(it, m).Print(std::cout);
}

int CmdRun(const Flags& flags) {
  ObsOutputs obs(flags);
  // Explicit degrees make this a strategy query; otherwise auto-tune.
  const bool explicit_strategy = flags.Has("tp") || flags.Has("cp") ||
                                 flags.Has("pp") || flags.Has("dp") ||
                                 flags.Has("sp");
  const memo::core::PlanRequest request =
      ReadPlanRequest(flags, explicit_strategy ? "strategy" : "best");
  const memo::core::PlanResult run =
      memo::core::ExecutePlanRequest(request);
  if (!run.status.ok()) {
    if (explicit_strategy) {
      std::fprintf(stderr, "%s\n", run.status.ToString().c_str());
    } else {
      std::fprintf(stderr, "%s (tried %d strategies)\n",
                   run.status.ToString().c_str(), run.strategies_tried);
    }
    return 1;
  }
  if (!explicit_strategy) {
    std::printf("auto-tuned over %d strategies (%d feasible)\n\n",
                run.strategies_tried, run.strategies_feasible);
  }
  PrintResult(run.best, request.model);
  return obs.Finish();
}

int CmdPlan(const Flags& flags) {
  const memo::core::PlanRequest request = ReadProfileRequest(flags);
  const auto profile = memo::core::ProfileJob(request, request.strategy);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  auto plan = memo::planner::PlanMemory(profile->trace, request.planner);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("arena %s (lower bound %s); layer fwd/bwd peaks %s / %s\n",
              memo::FormatBytes(plan->arena_bytes).c_str(),
              memo::FormatBytes(plan->lower_bound).c_str(),
              memo::FormatBytes(plan->layer_fwd_peak).c_str(),
              memo::FormatBytes(plan->layer_bwd_peak).c_str());
  const bool needs_um =
      memo::core::ProfilingMigrationBytes(request, request.strategy) > 0;
  std::printf("alpha %.3f; offload %s per layer; profiling needs UM: %s\n",
              profile->alpha.alpha,
              memo::FormatBytes(profile->offload_bytes_per_layer).c_str(),
              needs_um ? "yes" : "no");
  const std::string out = flags.Get("out", "");
  if (!out.empty()) {
    const memo::Status saved = memo::planner::SavePlan(*plan, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("plan written to %s (%zu tensors)\n", out.c_str(),
                plan->addresses.size());
  }
  return 0;
}

int CmdMaxSeq(const Flags& flags) {
  const memo::core::PlanRequest request = ReadPlanRequest(flags, "maxseq");
  const memo::core::PlanResult result =
      memo::core::ExecutePlanRequest(request);
  if (!result.status.ok()) {
    std::fprintf(stderr, "%s\n", result.status.ToString().c_str());
    return 1;
  }
  std::printf("%s on %d GPUs: max sequence %s\n",
              memo::parallel::SystemKindToString(request.system),
              request.cluster.total_gpus(),
              memo::FormatSeqLen(result.max_seq).c_str());
  return result.max_seq > 0 ? 0 : 1;
}

int CmdAlpha(const Flags& flags) {
  const memo::core::PlanRequest request = ReadProfileRequest(flags);
  const auto profile = memo::core::ProfileJob(request, request.strategy);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  // The constraints that bound the LP optimum, e.g. "overlap" or
  // "host-memory+disk-bandwidth"; "forced" when --alpha replaced the LP.
  const memo::core::TieredAlphaResult& alpha = profile->alpha;
  const memo::model::SkeletalLayout& skeletal = profile->timings.skeletal;
  std::string bounds = request.forced_alpha >= 0.0 ? "forced" : "";
  for (const auto& [bound, name] :
       {std::pair{alpha.overlap_bound, "overlap"},
        std::pair{alpha.host_memory_bound, "host-memory"},
        std::pair{alpha.disk_memory_bound, "disk-memory"},
        std::pair{alpha.disk_bandwidth_bound, "disk-bandwidth"}}) {
    if (bound) bounds += (bounds.empty() ? "" : "+") + std::string(name);
  }
  if (bounds.empty()) bounds = "unconstrained";
  if (request.cluster.disk_bytes_per_gpu() > 0) {
    bounds += memo::StrFormat("; RAM %.3f + disk %.3f, %.0f%% of base in RAM",
                              alpha.alpha_ram, alpha.alpha_disk,
                              alpha.base_ram_fraction * 100.0);
  }
  std::printf(
      "alpha = %.3f (%s); per-layer skeletal %s = input %s + attn %s "
      "+ others %s; offload %s/layer -> host total %s\n",
      alpha.alpha, bounds.c_str(),
      memo::FormatBytes(skeletal.total_bytes()).c_str(),
      memo::FormatBytes(skeletal.input_bytes).c_str(),
      memo::FormatBytes(skeletal.attn_out_bytes).c_str(),
      memo::FormatBytes(skeletal.others_bytes).c_str(),
      memo::FormatBytes(profile->offload_bytes_per_layer).c_str(),
      memo::FormatBytes(
          profile->offload_bytes_per_layer *
          memo::model::SwappedLayers(profile->timings.layers_per_stage))
          .c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  ObsOutputs obs(flags);
  memo::train::TrainRunOptions options;
  options.model.layers = flags.GetInt("layers", 4);
  options.model.hidden = flags.GetInt("hidden", 32);
  options.model.heads = flags.GetInt("heads", 4);
  options.model.ffn = flags.GetInt("ffn", 128);
  options.model.vocab = flags.GetInt("vocab", 64);
  options.model.seq = static_cast<int>(flags.GetSeq("seq", 64));
  options.iterations = flags.GetInt("iterations", 40);
  const std::string policy = flags.Get("policy", "tokenwise");
  if (policy != "tokenwise" && policy != "retain") {
    std::fprintf(stderr, "--policy must be tokenwise or retain (got \"%s\")\n",
                 policy.c_str());
    Usage();
    return 2;
  }
  options.policy = policy == "retain"
                       ? memo::train::ActivationPolicy::kRetainAll
                       : memo::train::ActivationPolicy::kTokenWise;
  options.alpha = flags.GetDouble("alpha", 0.5);
  // Async is the paper's configuration (and bit-identical to inline), so it
  // is the default; --async 0 forces the inline copies.
  options.async_offload = flags.GetInt("async", 1) != 0;
  options.backend = ParseBackend(flags);

  // Checkpoint/resume configuration. The directory is created when absent
  // and validated up front, so a long run cannot die at its first save.
  options.checkpoint_dir = flags.Get("checkpoint-dir", "");
  options.checkpoint_every = flags.GetInt("checkpoint-every", 0);
  RequirePositiveIfSet(flags, "checkpoint-every");
  options.resume = flags.GetInt("resume", 0) != 0;
  if (memo::Status valid = options.Validate(); !valid.ok()) {
    ExitNamingTheFlag(valid);
  }
  if (!options.checkpoint_dir.empty()) {
    struct stat st;
    if (::stat(options.checkpoint_dir.c_str(), &st) == 0) {
      if (!S_ISDIR(st.st_mode) ||
          ::access(options.checkpoint_dir.c_str(), W_OK) != 0) {
        std::fprintf(stderr,
                     "--checkpoint-dir %s is not a writable directory\n",
                     options.checkpoint_dir.c_str());
        return 2;
      }
    } else if (::mkdir(options.checkpoint_dir.c_str(), 0755) != 0) {
      std::fprintf(stderr, "--checkpoint-dir %s cannot be created\n",
                   options.checkpoint_dir.c_str());
      return 2;
    }
  }

  // Seeded fault injection (e.g. --fault "disk.page_write:p=0.05"). Armed
  // before the run so the spec covers every site the run touches.
  if (flags.Has("fault-seed")) {
    memo::FaultInjector::Global().Seed(
        static_cast<std::uint64_t>(flags.GetDouble("fault-seed", 0.0)));
  }
  const std::string fault_spec = flags.Get("fault", "");
  if (!fault_spec.empty()) {
    const memo::Status armed =
        memo::FaultInjector::Global().ArmFromSpec(fault_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "%s\n", armed.ToString().c_str());
      return 2;
    }
  }

  const memo::train::TrainRunResult result =
      memo::train::RunTraining(options);
  memo::FaultInjector::Global().Reset();
  if (result.resumed_from_step >= 0) {
    std::printf("resumed from checkpoint at step %lld\n",
                static_cast<long long>(result.resumed_from_step));
  }
  if (result.degraded) {
    std::printf("run degraded: stash backend failed permanently; "
                "finished on the RAM-only fallback\n");
  }
  if (!result.status.ok()) {
    std::fprintf(stderr, "training stopped after %zu iterations: %s\n",
                 result.losses.size(), result.status.ToString().c_str());
    obs.Finish();
    return 1;
  }
  const auto& stats = result.offload_stats;
  if (result.checkpoints_written > 0) {
    std::printf("checkpoints written: %d (dir %s)\n",
                result.checkpoints_written, options.checkpoint_dir.c_str());
  }
  std::printf("final loss %.6f after %d iterations\n", result.losses.back(),
              options.iterations);
  std::printf("recomputed rows %lld; peak stash %s\n",
              static_cast<long long>(result.recomputed_rows),
              memo::FormatBytes(result.peak_stored_bytes).c_str());
  std::printf(
      "RAM tier: %s in / %s out (peak %s)\n",
      memo::FormatBytes(stats.ram_tier.put_bytes).c_str(),
      memo::FormatBytes(stats.ram_tier.take_bytes).c_str(),
      memo::FormatBytes(stats.ram_tier.peak_resident_bytes).c_str());
  std::printf(
      "disk tier: %s in / %s out (%lld pages, %lld checksums verified)\n",
      memo::FormatBytes(stats.disk_tier.put_bytes).c_str(),
      memo::FormatBytes(stats.disk_tier.take_bytes).c_str(),
      static_cast<long long>(stats.disk_tier.spill_pages),
      static_cast<long long>(stats.disk_tier.checksum_verifications));
  std::printf("wall %.3fs; copier busy %.3fs; overlap %.1f%%\n",
              result.wall_seconds, stats.copier_busy_seconds,
              stats.overlap_efficiency() * 100.0);
  return obs.Finish();
}

/// Self-pipe for async-signal-safe shutdown: the handler only write()s one
/// byte; a watcher thread turns it into BeginDrain. Main writes a 0 byte
/// after shutdown to dismiss the watcher.
int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// `memo_cli serve`: long-running planning service on a Unix socket. The
/// process answers newline-delimited JSON plan queries from a pool of
/// solver sessions behind a fingerprint-keyed LRU plan cache, until
/// interrupted (or --max-requests answers have been served).
///
/// SIGTERM/SIGINT trigger a graceful drain: stop accepting, answer what is
/// in flight, flush metrics, save the --cache-snapshot, exit 0. Exit codes:
/// 0 = clean shutdown (including signal-driven drain), 1 = runtime error,
/// 2 = usage error.
int CmdServe(const Flags& flags) {
  ObsOutputs obs(flags);
  const std::string socket_path = flags.Get("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "serve requires --socket PATH\n");
    Usage();
    return 2;
  }
  RequirePositiveIfSet(flags, "sessions");
  RequirePositiveIfSet(flags, "queue");
  RequirePositiveIfSet(flags, "request-deadline-ms");
  RequirePositiveIfSet(flags, "idle-timeout-ms");
  RequirePositiveIfSet(flags, "max-line-bytes");
  RequirePositiveIfSet(flags, "max-connections");
  RequirePositiveIfSet(flags, "drain-grace-ms");

  // Seeded fault injection (e.g. --fault "serve.snapshot_read:nth=1") for
  // chaos drills against a live server.
  if (flags.Has("fault-seed")) {
    memo::FaultInjector::Global().Seed(
        static_cast<std::uint64_t>(flags.GetDouble("fault-seed", 0.0)));
  }
  const std::string fault_spec = flags.Get("fault", "");
  if (!fault_spec.empty()) {
    const memo::Status armed =
        memo::FaultInjector::Global().ArmFromSpec(fault_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "%s\n", armed.ToString().c_str());
      return 2;
    }
  }

  memo::serve::PlanServerOptions options;
  options.sessions = flags.GetInt("sessions", 4);
  options.max_queue = flags.GetInt("queue", 64);
  options.cache.capacity_bytes = SizeFlagBytes(
      flags, "cache-mib", memo::kMiB, /*zero_ok=*/false, 32 * memo::kMiB);
  memo::serve::PlanServer server(options);

  // Warm restart: load the previous run's cache snapshot if present. A
  // corrupt or unreadable snapshot is logged and ignored — a service that
  // refuses to boot because its cache file is damaged would turn a restart
  // into an outage.
  const std::string snapshot_path = flags.Get("cache-snapshot", "");
  if (!snapshot_path.empty()) {
    const auto loaded =
        memo::serve::LoadCacheSnapshot(snapshot_path, &server.cache());
    if (loaded.ok()) {
      std::printf("cache snapshot: restored %d entries from %s\n", *loaded,
                  snapshot_path.c_str());
    } else if (loaded.status().code() == memo::StatusCode::kNotFound) {
      std::printf("cache snapshot: none at %s (cold start)\n",
                  snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "cache snapshot: %s; starting cold\n",
                   loaded.status().ToString().c_str());
    }
  }

  memo::serve::SocketServerOptions socket_options;
  socket_options.socket_path = socket_path;
  socket_options.max_requests = flags.GetInt("max-requests", -1);
  socket_options.request_deadline_ms =
      flags.GetInt("request-deadline-ms", 0);
  socket_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 0);
  socket_options.max_line_bytes =
      flags.GetInt("max-line-bytes", 1 << 20);
  socket_options.max_connections = flags.GetInt("max-connections", 0);
  socket_options.drain_grace_ms = flags.GetInt("drain-grace-ms", 5000);
  memo::serve::SocketServer socket_server(&server, socket_options);
  const memo::Status started = socket_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  // Graceful-drain plumbing: signal handler -> pipe byte -> watcher thread
  // -> BeginDrain. Everything non-trivial happens on the watcher thread;
  // the handler itself is a single write().
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe(): %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  const long long drain_grace_ms = socket_options.drain_grace_ms;
  std::thread signal_watcher([&socket_server, drain_grace_ms] {
    char byte = 0;
    while (true) {
      const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || byte == 0) return;  // sentinel or pipe gone: done
      std::printf("shutdown signal: draining (grace %lld ms)\n",
                  drain_grace_ms);
      std::fflush(stdout);
      socket_server.BeginDrain();
    }
  });

  std::printf("serving on %s (%d sessions, queue %d, cache %s)\n",
              socket_path.c_str(), options.sessions, options.max_queue,
              memo::FormatBytes(options.cache.capacity_bytes).c_str());
  std::fflush(stdout);

  socket_server.Wait();
  socket_server.Stop();
  server.Shutdown();

  // Dismiss the watcher: restore default handlers first so a late signal
  // kills the (already drained) process instead of writing to a dead pipe.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  {
    const char sentinel = 0;
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &sentinel, 1);
  }
  signal_watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;

  if (!snapshot_path.empty()) {
    const auto saved =
        memo::serve::SaveCacheSnapshot(snapshot_path, server.cache());
    if (saved.ok()) {
      std::printf("cache snapshot: saved %d entries to %s\n", *saved,
                  snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "cache snapshot: save failed: %s\n",
                   saved.status().ToString().c_str());
    }
  }
  if (!fault_spec.empty()) memo::FaultInjector::Global().Reset();

  const auto cache = server.cache().stats();
  const auto stats = server.stats();
  std::printf("served %lld requests (%lld shed, %lld deadline-expired); "
              "cache %lld hits / %lld misses / %lld coalesced / %lld "
              "evictions\n",
              static_cast<long long>(socket_server.requests_served()),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.deadline_exceeded),
              static_cast<long long>(cache.hits),
              static_cast<long long>(cache.misses),
              static_cast<long long>(cache.coalesced),
              static_cast<long long>(cache.evictions));
  return obs.Finish();
}

/// `memo_cli query`: one-shot client for a running `serve` instance.
/// Either forward a raw request object via --json, or send the planning
/// flags `run` reads. Prints the response line; exits 0 when the
/// plan solved, 1 otherwise.
///
/// Shed and deadline-expired responses (the server marks them
/// "retryable":true) are re-sent with bounded exponential backoff —
/// --attempts bounds the total tries, --no-retry disables re-sending
/// entirely. A request the server refused was never looked at, so
/// re-sending cannot double-execute anything.
int CmdQuery(const Flags& flags) {
  const std::string socket_path = flags.Get("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "query requires --socket PATH\n");
    Usage();
    return 2;
  }

  // The planning flags are checked here with the reader the server runs,
  // then sent as they were typed, each field as a JSON string.
  std::string line = flags.Get("json", "");
  if (line.empty()) {
    ReadPlanRequest(flags, nullptr);  // exits 2 on a rejected field
    memo::serve::PlanRequestFields fields = RequestFields(flags, nullptr);
    for (const char* own : {"socket", "retries", "attempts", "no_retry"}) {
      fields.erase(own);
    }
    for (const auto& [key, value] : fields) {
      line += (line.empty() ? "{\"" : ",\"") + memo::serve::JsonEscape(key) +
              "\":\"" + memo::serve::JsonEscape(value) + "\"";
    }
    line += line.empty() ? "{}" : "}";
  }

  memo::RetryPolicy policy;
  policy.retry_unavailable = true;
  policy.max_attempts = flags.GetInt("attempts", 4);
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 0.5;
  if (flags.GetInt("no-retry", 0) != 0) policy.max_attempts = 1;

  std::string response_line;
  const memo::Status status =
      policy.Run("serve.query", [&]() -> memo::Status {
        const auto response = memo::serve::QueryOverSocket(
            socket_path, line, flags.GetInt("retries", 0));
        // Connect/transport failures surface as UNAVAILABLE and ride the
        // same retry loop as server-side shedding.
        if (!response.ok()) return response.status();
        response_line = *response;
        double code = 0.0;
        bool retryable = false;
        memo::serve::JsonFindNumber(response_line, "code", &code);
        memo::serve::JsonFindBool(response_line, "retryable", &retryable);
        if (retryable) {
          return memo::Status(
              static_cast<memo::StatusCode>(static_cast<int>(code)),
              "server refused the request (shed or deadline-expired)");
        }
        return memo::OkStatus();
      });
  if (!status.ok()) {
    // Machine-readable error line on stdout (same shape the server emits),
    // human-readable diagnosis on stderr.
    std::printf("%s\n",
                memo::serve::BuildErrorResponseLine(status).c_str());
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response_line.c_str());
  double code = -1.0;
  if (!memo::serve::JsonFindNumber(response_line, "code", &code)) return 1;
  return code == 0.0 ? 0 : 1;
}

/// Model config for synthetic trace recording: a Table-2 preset via
/// --model, or a small custom shape via --layers/--hidden/... (defaults
/// are deliberately tiny so `trace record` runs in milliseconds).
memo::model::ModelConfig TraceModelConfig(const Flags& flags) {
  if (flags.Has("model")) {
    auto config = memo::model::ModelByName(flags.Get("model", ""));
    if (!config.ok()) {
      std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
      std::exit(2);
    }
    return config.value();
  }
  memo::model::ModelConfig config;
  config.name = "custom";
  config.num_layers = flags.GetInt("layers", 4);
  config.hidden = flags.GetInt("hidden", 512);
  config.num_heads = flags.GetInt("heads", 8);
  config.ffn_hidden = flags.GetInt("ffn", 4 * flags.GetInt("hidden", 512));
  config.vocab = flags.GetInt("vocab", 4096);
  return config;
}

int CmdTraceRecord(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "trace record requires --out FILE\n");
    return 2;
  }
  RequireWritableFileIfSet(flags, "out");
  const std::string kind = flags.Get("kind", "varlen");

  // The generators assert on shapes they cannot build: reject them here.
  for (const char* key : {"layers", "hidden", "heads", "ffn", "vocab", "tp"}) {
    RequirePositiveIfSet(flags, key);
  }
  const memo::model::ModelConfig config = TraceModelConfig(flags);
  if (config.hidden % config.num_heads != 0) {
    std::fprintf(stderr, "--heads must divide --hidden (got %lld and %lld)\n",
                 static_cast<long long>(config.num_heads),
                 static_cast<long long>(config.hidden));
    return 2;
  }
  memo::model::TraceGenOptions base;
  base.seq_local = flags.GetSeq("seq", 8 * memo::kSeqK);
  base.tensor_parallel = flags.GetInt("tp", 1);
  if (flags.GetInt("full-recompute", 0) != 0) {
    base.mode = memo::model::ActivationMode::kFullRecompute;
  }
  memo::model::WorkloadGenOptions gen;
  gen.iterations = flags.GetInt("iterations", 8);
  gen.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  gen.seq_local_min = flags.GetSeq("seq-min", 4 * memo::kSeqK);
  gen.seq_local_max = flags.GetSeq("seq-max", 16 * memo::kSeqK);
  gen.moe_spread = flags.GetDouble("moe-spread", 0.75);
  if (gen.iterations <= 0) {
    std::fprintf(stderr, "--iterations must be positive\n");
    return 2;
  }
  if (base.seq_local <= 0) {
    std::fprintf(stderr, "--seq must be positive\n");
    return 2;
  }
  if (gen.seq_local_min > gen.seq_local_max) {
    std::fprintf(stderr, "--seq-min must not exceed --seq-max (got %s > %s)\n",
                 flags.Get("seq-min", "4K").c_str(),
                 flags.Get("seq-max", "16K").c_str());
    return 2;
  }

  memo::model::WorkloadTrace workload;
  if (kind == "varlen") {
    workload = memo::model::GenerateVariableLengthWorkload(config, base, gen);
  } else if (kind == "moe") {
    workload = memo::model::GenerateMoeWorkload(config, base, gen);
  } else if (kind == "diurnal") {
    workload = memo::model::GenerateDiurnalWorkload(config, base, gen);
  } else {
    std::fprintf(stderr,
                 "--kind must be varlen, moe or diurnal (got \"%s\")\n",
                 kind.c_str());
    return 2;
  }

  memo::trace::TraceWriterOptions writer_options;
  writer_options.compress = flags.GetInt("raw", 0) == 0;
  if (flags.Has("chunk-records")) {
    writer_options.chunk_records = flags.GetInt("chunk-records", 4096);
    if (writer_options.chunk_records <= 0) {
      std::fprintf(stderr, "--chunk-records must be positive\n");
      return 2;
    }
  }
  const memo::Status status =
      memo::trace::WriteWorkloadFile(workload, out, writer_options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu iterations (%zu requests) to %s\n",
              workload.iterations.size(), workload.TotalRequests(),
              out.c_str());
  return 0;
}

int CmdTraceInfo(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "trace info requires --in FILE\n");
    return 2;
  }
  const auto reader = memo::trace::TraceReader::Open(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const memo::trace::TraceReader& r = *reader;
  const std::uint64_t fingerprint = r.ContentFingerprint();
  if (flags.GetInt("json", 0) != 0) {
    std::printf(
        "{\"records\":%llu,\"chunks\":%llu,"
        "\"file_bytes\":%llu,\"compressed\":%s,\"strings\":%zu,"
        "\"segments\":%zu,\"iterations\":%zu,"
        "\"content_fingerprint\":\"%llx\"}\n",
        static_cast<unsigned long long>(r.record_count()),
        static_cast<unsigned long long>(r.chunk_count()),
        static_cast<unsigned long long>(r.file_bytes()),
        (r.flags() & memo::trace::kFlagCompressed) != 0 ? "true" : "false",
        r.strings().size(), r.segments().size(), r.iterations().size(),
        static_cast<unsigned long long>(fingerprint));
    return 0;
  }
  memo::TablePrinter table({"field", "value"});
  table.AddRow({"records", std::to_string(r.record_count())});
  table.AddRow({"chunks", std::to_string(r.chunk_count())});
  table.AddRow({"file bytes", std::to_string(r.file_bytes())});
  table.AddRow({"compressed",
                (r.flags() & memo::trace::kFlagCompressed) != 0 ? "yes"
                                                                : "no"});
  table.AddRow({"dictionary strings", std::to_string(r.strings().size())});
  table.AddRow({"segments", std::to_string(r.segments().size())});
  table.AddRow({"iterations", std::to_string(r.iterations().size())});
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%llx",
                static_cast<unsigned long long>(fingerprint));
  table.AddRow({"content fingerprint", fp});
  table.Print(std::cout);
  return 0;
}

int CmdTraceConvert(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  const std::string out = flags.Get("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "trace convert requires --in FILE and --out FILE\n");
    return 2;
  }
  RequireWritableFileIfSet(flags, "out");
  const std::string to = flags.Get("to", "json");

  const auto reader = memo::trace::TraceReader::Open(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }

  if (to != "json" && to != "binary") {
    std::fprintf(stderr, "--to must be json or binary (got \"%s\")\n",
                 to.c_str());
    return 2;
  }
  const auto workload = memo::trace::ReadWorkload(*reader);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  if (to == "binary") {
    // Re-encode (e.g. to toggle compression with --raw).
    memo::trace::TraceWriterOptions writer_options;
    writer_options.compress = flags.GetInt("raw", 0) == 0;
    const memo::Status status = memo::trace::WriteWorkloadFile(
        workload.value(), out, writer_options);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
  }
  const std::string payload = memo::trace::WorkloadToJson(workload.value());
  const memo::Status written = memo::WriteWholeFile(
      out, payload, "trace JSON", memo::WriteMode::kInPlace);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), payload.size());
  return 0;
}

int CmdTraceDiff(const Flags& flags) {
  const std::string a = flags.Get("a", "");
  const std::string b = flags.Get("b", "");
  if (a.empty() || b.empty()) {
    std::fprintf(stderr, "trace diff requires --a FILE and --b FILE\n");
    return 2;
  }
  auto diff = memo::trace::DiffTraceFiles(a, b);
  if (!diff.ok()) {
    std::fprintf(stderr, "%s\n", diff.status().ToString().c_str());
    return 2;
  }
  if (flags.GetInt("json", 0) != 0) {
    std::string json = std::string("{\"equal\":") +
                       (diff->equal ? "true" : "false") +
                       ",\"differences\":[";
    for (std::size_t i = 0; i < diff->differences.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + diff->differences[i] + "\"";
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
  } else if (diff->equal) {
    std::printf("traces are identical\n");
  } else {
    for (const std::string& line : diff->differences) {
      std::printf("%s\n", line.c_str());
    }
  }
  return diff->equal ? 0 : 1;
}

int CmdTraceReplay(const Flags& flags) {
  const std::string in = flags.Get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "trace replay requires --in FILE\n");
    return 2;
  }
  RequireWritableFileIfSet(flags, "out");
  memo::trace::ReplayOptions options;
  options.allocator.capacity_bytes = SizeFlagBytes(
      flags, "capacity-gib", memo::kGiB, /*zero_ok=*/false, 80 * memo::kGiB);
  options.static_bytes = SizeFlagBytes(flags, "static-gib", memo::kGiB,
                                       /*zero_ok=*/true, 0);
  options.run_planner = flags.GetInt("no-planner", 0) == 0;

  auto summary = memo::trace::ReplayTraceFile(in, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  const std::string json = summary->ToJson();
  const std::string out = flags.Get("out", "");
  if (!out.empty()) {
    const memo::Status written = memo::WriteWholeFile(
        out, json, "replay summary", memo::WriteMode::kInPlace);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

int CmdTrace(const std::string& verb, const Flags& flags) {
  if (verb == "record") return CmdTraceRecord(flags);
  if (verb == "info") return CmdTraceInfo(flags);
  if (verb == "convert") return CmdTraceConvert(flags);
  if (verb == "diff") return CmdTraceDiff(flags);
  if (verb == "replay") return CmdTraceReplay(flags);
  std::fprintf(stderr, "unknown trace verb \"%s\"\n", verb.c_str());
  Usage();
  return 2;
}

void Usage() {
  std::fprintf(stderr,
               "usage: memo_cli <run|plan|maxseq|alpha|train|serve|query|"
               "trace> [--flag value]...\n"
               "  run    --model 7B --seq 1024K --gpus 8 [--system memo]\n"
               "         [--tp N --cp N --pp N --dp N --sp N] [--alpha X]\n"
               "         [--host-gib G --nvme-gib G --nvme-gbps B]\n"
               "         [--trace-out t.json --metrics-out m.json]\n"
               "  plan   --model 7B --seq 512K --gpus 8 --tp 4 --cp 2\n"
               "         [--out plan.txt]\n"
               "  maxseq --model 7B --gpus 8 [--system memo] [--step 128K]\n"
               "  alpha  --model 7B --seq 512K --gpus 8 --tp 4 --cp 2\n"
               "  (run, plan, maxseq, alpha and query share the request\n"
               "   fields of serve/protocol.h as flags: --host-gib etc.)\n"
               "  train  --layers 4 --seq 64 --alpha 0.5 [--async 0]\n"
               "         [--backend ram|disk|tiered --ram-cap-mib M\n"
               "          --disk-gbps B]\n"
               "         [--checkpoint-dir D --checkpoint-every N\n"
               "          --resume 1]\n"
               "         [--fault \"site:p=0.05,...;site2:...\"\n"
               "          --fault-seed S]\n"
               "         [--trace-out t.json --metrics-out m.json]\n"
               "  serve  --socket /tmp/memo.sock [--sessions N --queue N]\n"
               "         [--cache-mib M] [--max-requests N]\n"
               "         [--request-deadline-ms D --idle-timeout-ms D]\n"
               "         [--max-line-bytes B --max-connections N]\n"
               "         [--cache-snapshot snap.bin --drain-grace-ms D]\n"
               "         [--fault \"site:p=0.05,...\" --fault-seed S]\n"
               "         (SIGTERM/SIGINT drain gracefully; exit 0 clean,\n"
               "          1 runtime error, 2 usage)\n"
               "  query  --socket /tmp/memo.sock [--kind best|strategy|"
               "maxseq]\n"
               "         [--model 7B --seq 512K --gpus 8 --tp N ...]\n"
               "         [--json '{...}'] [--retries N] [--attempts N]\n"
               "         [--no-retry]\n"
               "  trace  record  --out t.memotrc [--kind varlen|moe|"
               "diurnal]\n"
               "                 [--iterations N --seed S]\n"
               "                 [--seq-min 4K --seq-max 16K --seq 8K]\n"
               "                 [--moe-spread X] [--model 7B | --layers N\n"
               "                  --hidden H --heads N --ffn F --vocab V]\n"
               "                 [--tp N --full-recompute] [--raw]\n"
               "                 [--chunk-records N]\n"
               "         info    --in t.memotrc [--json]\n"
               "         convert --in t.memotrc --out f [--to json|binary]\n"
               "                 [--raw]\n"
               "         diff    --a x.memotrc --b y.memotrc [--json]\n"
               "         replay  --in t.memotrc [--out summary.json]\n"
               "                 [--capacity-gib G --static-gib G]\n"
               "                 [--no-planner]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "trace") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr,
                   "trace requires a verb: record, info, convert, diff or "
                   "replay\n");
      Usage();
      return 2;
    }
    return CmdTrace(argv[2], Flags(argc, argv, 3));
  }
  const Flags flags(argc, argv, 2);
  if (command == "run") return CmdRun(flags);
  if (command == "plan") return CmdPlan(flags);
  if (command == "maxseq") return CmdMaxSeq(flags);
  if (command == "alpha") return CmdAlpha(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "query") return CmdQuery(flags);
  std::fprintf(stderr, "unknown command \"%s\"\n", command.c_str());
  Usage();
  return 2;
}
