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
// Every flag is read once, by type and domain (class Flags); a value out
// of its domain, or a flag the command does not read, exits 2.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

void Usage();

/// Exits when `path`, named by --`key`, cannot be created or overwritten:
/// the file exists read-only, or its directory is missing or unwritable.
/// Checked before the work starts, so a long run cannot die at the final
/// write of its trace/metrics/checkpoint output.
void RequireWritable(const std::string& key, const std::string& path) {
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

constexpr double kMaxReal = std::numeric_limits<double>::max();

/// The whole of `text` as a finite double.
bool ParseReal(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*out);
}

/// One command's --key value flags. Each read takes the flag's domain:
/// text that is no value of its kind, or a value outside the domain, exits
/// 2 with "--flag must be <domain> (got "...")" and the usage. Each read
/// also marks its flag, and RefuseUnread() exits 2 naming a flag no read
/// took.
class Flags {
 public:
  Flags(std::string command, int argc, char** argv, int first)
      : command_(std::move(command)) {
    // The toggles may be given bare, meaning 1.
    static const std::set<std::string> kToggles = {
        "async", "resume", "full-recompute", "raw", "json", "no-planner",
        "no-retry"};
    for (int i = first; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected a --flag, got %s\n", argv[i]);
        Usage();
        std::exit(2);
      }
      const char* name = argv[i] + 2;
      const bool next_is_flag =
          i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0;
      if (kToggles.count(name) > 0 && next_is_flag) {
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

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::map<std::string, std::string>& values() const { return values_; }

  /// For the flags the planning request's reader takes.
  void MarkRead(const std::string& key) { read_.insert(key); }

  /// A path, spec or name; a `required` one exits 2 when absent.
  std::string Text(const std::string& key, bool required = false) {
    const std::string* text = Find(key);
    if (text != nullptr && !text->empty()) return *text;
    if (required) {
      std::fprintf(stderr, "%s requires --%s\n", command_.c_str(),
                   key.c_str());
      Usage();
      std::exit(2);
    }
    return "";
  }

  /// A file the command writes (RequireWritable).
  std::string Output(const std::string& key, bool required = false) {
    const std::string path = Text(key, required);
    RequireWritable(key, path);
    return path;
  }

  /// A whole number in [lo, hi], by default all of T. std::from_chars
  /// reads it as T and refuses what T cannot hold, so nothing narrows.
  template <typename T>
  T Int(const std::string& key, T fallback,
        T lo = std::numeric_limits<T>::min(),
        T hi = std::numeric_limits<T>::max()) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    T value{};
    const char* end = text->data() + text->size();
    const auto [stop, error] = std::from_chars(text->data(), end, value);
    if (text->empty() || error != std::errc() || stop != end || value < lo ||
        value > hi) {
      Refuse(key, lo == 1 ? "a positive number, whole and at most " +
                                std::to_string(hi)
                          : "an integer from " + std::to_string(lo) +
                                " to " + std::to_string(hi));
    }
    return value;
  }

  /// A finite number in [lo, hi].
  double Real(const std::string& key, double fallback, double lo,
              double hi) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    double value = 0.0;
    if (!ParseReal(*text, &value) || value < lo || value > hi) {
      Refuse(key,
             lo == -kMaxReal ? "a finite number"
             : lo > 0.0 && hi == kMaxReal
                 ? memo::StrFormat("a positive number of at least %g", lo)
                 : memo::StrFormat("a number from %g to %g", lo, hi));
    }
    return value;
  }

  /// A sequence length ("512K" is 512 * 1024 tokens) in [lo, hi] tokens.
  std::int64_t Seq(const std::string& key, std::int64_t fallback,
                   std::int64_t lo, std::int64_t hi) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    std::int64_t tokens = 0;
    if (!memo::ParseSeqLen(*text, &tokens) || tokens < lo || tokens > hi) {
      Refuse(key, "a sequence length such as 512K, " + std::to_string(lo) +
                      " to " + std::to_string(hi) + " tokens");
    }
    return tokens;
  }

  /// A size in `unit` bytes (--ram-cap-mib, --capacity-gib, ...) as a byte
  /// count of at least one byte (or zero, when `zero_ok`) below 2^63.
  std::int64_t Bytes(const std::string& key, std::int64_t unit, bool zero_ok,
                     std::int64_t fallback_bytes) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback_bytes;
    double value = 0.0;
    const bool parsed = ParseReal(*text, &value);
    const double bytes = value * static_cast<double>(unit);
    if (!parsed || !(zero_ok ? bytes >= 0.0 : bytes >= 1.0) ||
        !(bytes < 0x1p63)) {
      Refuse(key, std::string("a ") + (zero_ok ? "non-negative" : "positive") +
                      " number below 2^63 bytes");
    }
    return static_cast<std::int64_t>(bytes);
  }

  /// The value of the named choice the flag spells.
  template <typename T>
  T Choice(const std::string& key, T fallback,
           std::initializer_list<std::pair<const char*, T>> choices) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    std::string names;
    for (const auto& [name, value] : choices) {
      if (*text == name) return value;
      names += (names.empty() ? "" : ", ") + std::string(name);
    }
    const std::size_t last = names.rfind(", ");
    if (last != std::string::npos) names.replace(last, 2, " or ");
    Refuse(key, names, "unknown " + key + " ");
  }

  /// A 0/1 toggle.
  bool Toggle(const std::string& key, bool fallback) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    if (*text != "0" && *text != "1") Refuse(key, "0 or 1");
    return *text == "1";
  }

  /// Exits 2 naming the first flag no read took. Commands call it once
  /// their reads are done, before any work.
  void RefuseUnread() const {
    for (const auto& [key, value] : values_) {
      if (read_.count(key) > 0) continue;
      std::fprintf(stderr, "--%s is not read by %s\n", key.c_str(),
                   command_.c_str());
      Usage();
      std::exit(2);
    }
  }

 private:
  const std::string* Find(const std::string& key) {
    read_.insert(key);
    const auto it = values_.find(key);
    return it != values_.end() ? &it->second : nullptr;
  }

  [[noreturn]] void Refuse(const std::string& key, const std::string& domain,
                           const std::string& got = "") const {
    std::fprintf(stderr, "--%s must be %s (got %s\"%s\")\n", key.c_str(),
                 domain.c_str(), got.c_str(), values_.at(key).c_str());
    Usage();
    std::exit(2);
  }

  std::string command_;
  std::map<std::string, std::string> values_;
  std::set<std::string> read_;
};

memo::offload::BackendOptions ReadBackend(Flags& flags) {
  using memo::offload::BackendKind;
  memo::offload::BackendOptions backend;
  backend.kind = flags.Choice("backend", BackendKind::kRam,
                              {{"ram", BackendKind::kRam},
                               {"disk", BackendKind::kDisk},
                               {"tiered", BackendKind::kTiered}});
  // A tiered stash with unlimited RAM never spills, which makes it
  // indistinguishable from --backend ram. Default the RAM tier to a small
  // cap so `train --backend tiered` actually exercises the disk tier; the
  // loss is bit-identical regardless of where the bytes land.
  const bool tiered = backend.kind == BackendKind::kTiered;
  backend.ram_capacity_bytes =
      flags.Bytes("ram-cap-mib", memo::kMiB, /*zero_ok=*/false,
                  tiered ? 256 * memo::kKiB : 0);
  backend.disk.bytes_per_second =
      flags.Real("disk-gbps", 0.0,
                 memo::offload::kMinDiskBytesPerSecond / memo::kGBps,
                 kMaxReal) *
      memo::kGBps;
  return backend;
}

/// Arms the process-wide fault injector with --fault (e.g.
/// "disk.page_write:p=0.05") seeded by --fault-seed, before the command
/// touches a site the spec names. Exits 2 on a spec the injector rejects.
void ArmFaults(Flags& flags) {
  memo::FaultInjector& injector = memo::FaultInjector::Global();
  if (flags.Has("fault-seed")) {
    injector.Seed(flags.Int<std::uint64_t>("fault-seed", 0));
  }
  const std::string spec = flags.Text("fault");
  if (spec.empty()) return;
  if (const memo::Status armed = injector.ArmFromSpec(spec); !armed.ok()) {
    std::fprintf(stderr, "%s\n", armed.ToString().c_str());
    std::exit(2);
  }
}

/// How `trace record` and `trace convert --to binary` encode: --raw turns
/// chunk compression off, --chunk-records sizes the chunks. A chunk's raw
/// bytes (24 per record) must fit the format's 32-bit size field.
memo::trace::TraceWriterOptions ReadWriterOptions(Flags& flags) {
  memo::trace::TraceWriterOptions options;
  options.compress = !flags.Toggle("raw", false);
  options.chunk_records =
      flags.Int("chunk-records", options.chunk_records, 1, 1 << 24);
  return options;
}

/// Observability sinks every command honours: --trace-out enables the
/// process-wide recorder for the command's duration and serializes the
/// Chrome-trace JSON on Finish(); --metrics-out snapshots the metrics
/// registry the same way. Both are off (and cost one atomic load per
/// instrumented site) unless the flag is given.
class ObsOutputs {
 public:
  explicit ObsOutputs(Flags& flags)
      : trace_path_(flags.Output("trace-out")),
        metrics_path_(flags.Output("metrics-out")) {
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

/// Reads the planning flags with the protocol's own request reader, so the
/// CLI and a `serve` instance build the same request, fingerprint included.
/// Each flag is its wire field with '-' for '_' (--host-gib is host_gib).
/// A non-null `kind` is the command's own, so --kind stays unread; so do
/// the flags the reader does not know. A rejected field exits 2 naming its
/// flag. `known`, when given, receives the fields the reader took.
memo::core::PlanRequest ReadPlanRequest(
    Flags& flags, const char* kind,
    memo::serve::PlanRequestFields* known = nullptr) {
  const auto field_name = [](std::string name) {
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
  };
  memo::serve::PlanRequestFields fields;
  for (const auto& [name, value] : flags.values()) {
    fields[field_name(name)] = value;
  }
  if (kind != nullptr) fields["kind"] = kind;
  std::vector<std::string> unknown;
  auto request = memo::serve::ParsePlanRequestFields(fields, &unknown);
  if (!request.ok()) ExitNamingTheFlag(request.status());
  for (const std::string& key : unknown) fields.erase(key);
  if (kind != nullptr) fields.erase("kind");
  for (const auto& [name, value] : flags.values()) {
    if (fields.count(field_name(name)) > 0) flags.MarkRead(name);
  }
  if (known != nullptr) *known = std::move(fields);
  return *request;
}

/// The request `plan` and `alpha` profile: the one `run` executes for the
/// same flags. Both report MEMO's profile, so another --system exits 2
/// naming the flag.
memo::core::PlanRequest ReadProfileRequest(Flags& flags) {
  memo::core::PlanRequest request = ReadPlanRequest(flags, "strategy");
  if (request.system != memo::parallel::SystemKind::kMemo) {
    ExitNamingTheFlag(memo::InvalidArgumentError(memo::StrFormat(
        "system must be memo: plan and alpha profile MEMO (got %s)",
        memo::parallel::SystemKindToString(request.system))));
  }
  return request;
}

int CmdRun(Flags& flags) {
  // Explicit degrees make this a strategy query; otherwise auto-tune.
  const bool explicit_strategy = flags.Has("tp") || flags.Has("cp") ||
                                 flags.Has("pp") || flags.Has("dp") ||
                                 flags.Has("sp");
  const memo::core::PlanRequest request =
      ReadPlanRequest(flags, explicit_strategy ? "strategy" : "best");
  flags.RefuseUnread();
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
  memo::core::IterationReportTable(run.best, request.model).Print(std::cout);
  return 0;
}

int CmdPlan(Flags& flags) {
  const memo::core::PlanRequest request = ReadProfileRequest(flags);
  const std::string out = flags.Output("out");
  flags.RefuseUnread();
  const auto profile = memo::core::ProfileJob(request, request.strategy);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  auto plan = memo::planner::PlanMemory(profile->trace);
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

int CmdMaxSeq(Flags& flags) {
  const memo::core::PlanRequest request = ReadPlanRequest(flags, "maxseq");
  flags.RefuseUnread();
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

int CmdAlpha(Flags& flags) {
  const memo::core::PlanRequest request = ReadProfileRequest(flags);
  flags.RefuseUnread();
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

int CmdTrain(Flags& flags) {
  using memo::train::ActivationPolicy;
  // TrainRunOptions::Validate() holds the ranges; these reads add the width
  // of each field.
  memo::train::TrainRunOptions options;
  options.model.layers = flags.Int("layers", 4);
  options.model.hidden = flags.Int("hidden", 32);
  options.model.heads = flags.Int("heads", 4);
  options.model.ffn = flags.Int("ffn", 128);
  options.model.vocab = flags.Int("vocab", 64);
  options.model.seq = static_cast<int>(
      flags.Seq("seq", 64, 0, std::numeric_limits<int>::max()));
  options.iterations = flags.Int("iterations", 40);
  options.policy = flags.Choice("policy", ActivationPolicy::kTokenWise,
                                {{"tokenwise", ActivationPolicy::kTokenWise},
                                 {"retain", ActivationPolicy::kRetainAll}});
  options.alpha = flags.Real("alpha", 0.5, -kMaxReal, kMaxReal);
  // Async is the paper's configuration (and bit-identical to inline), so it
  // is the default; --async 0 forces the inline copies.
  options.async_offload = flags.Toggle("async", true);
  options.backend = ReadBackend(flags);

  // Checkpoint/resume configuration. The directory is created when absent
  // and validated up front, so a long run cannot die at its first save.
  options.checkpoint_dir = flags.Text("checkpoint-dir");
  options.checkpoint_every = flags.Int("checkpoint-every", 0, 1);
  options.resume = flags.Toggle("resume", false);
  ArmFaults(flags);
  flags.RefuseUnread();
  if (memo::Status valid = options.Validate(); !valid.ok()) {
    ExitNamingTheFlag(valid);
  }
  const char* dir = options.checkpoint_dir.c_str();
  struct stat st;
  if (*dir != '\0' && ::mkdir(dir, 0755) != 0 &&
      (::stat(dir, &st) != 0 || !S_ISDIR(st.st_mode) ||
       ::access(dir, W_OK) != 0)) {
    std::fprintf(stderr, "--checkpoint-dir %s is not a writable directory\n",
                 dir);
    return 2;
  }

  const memo::train::TrainRunResult result =
      memo::train::RunTraining(options);
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
  return 0;
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
int CmdServe(Flags& flags) {
  memo::serve::PlanServerOptions options;
  // Each session is a thread the server starts before the socket binds.
  options.sessions = flags.Int("sessions", 4, 1, 256);
  options.max_queue = flags.Int("queue", 64, 1);
  options.cache.capacity_bytes = flags.Bytes(
      "cache-mib", memo::kMiB, /*zero_ok=*/false, 32 * memo::kMiB);
  memo::serve::SocketServerOptions socket_options;
  socket_options.socket_path = flags.Text("socket", /*required=*/true);
  socket_options.max_requests =
      flags.Int<std::int64_t>("max-requests", -1, -1);
  socket_options.request_deadline_ms = flags.Int<std::int64_t>(
      "request-deadline-ms", socket_options.request_deadline_ms, 1,
      std::numeric_limits<int>::max());
  socket_options.idle_timeout_ms = flags.Int("idle-timeout-ms", 0, 1);
  socket_options.max_line_bytes = flags.Int("max-line-bytes", 1 << 20, 1);
  socket_options.max_connections = flags.Int("max-connections", 0, 1);
  socket_options.drain_grace_ms = flags.Int("drain-grace-ms", 5000, 1);
  const std::string snapshot_path = flags.Text("cache-snapshot");
  // Seeded fault injection (e.g. --fault "serve.snapshot_read:nth=1") for
  // chaos drills against a live server.
  ArmFaults(flags);
  flags.RefuseUnread();
  memo::serve::PlanServer server(options);

  // Warm restart: load the previous run's cache snapshot if present. A
  // corrupt or unreadable snapshot is logged and ignored — a service that
  // refuses to boot because its cache file is damaged would turn a restart
  // into an outage.
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

  std::printf(
      "serving on %s (%d sessions, queue %d, cache %s, deadline %lld ms)\n",
      socket_options.socket_path.c_str(), options.sessions, options.max_queue,
      memo::FormatBytes(options.cache.capacity_bytes).c_str(),
      static_cast<long long>(socket_options.request_deadline_ms));
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
  return 0;
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
int CmdQuery(Flags& flags) {
  const std::string socket_path = flags.Text("socket", /*required=*/true);
  // The planning flags are checked here with the reader the server runs,
  // then sent as they were typed, each field as a JSON string.
  std::string line = flags.Text("json");
  if (line.empty()) {
    memo::serve::PlanRequestFields fields;
    ReadPlanRequest(flags, nullptr, &fields);  // exits 2 on a rejected field
    for (const auto& [key, value] : fields) {
      line += (line.empty() ? "{\"" : ",\"") + memo::serve::JsonEscape(key) +
              "\":\"" + memo::serve::JsonEscape(value) + "\"";
    }
    line += line.empty() ? "{}" : "}";
  }

  memo::RetryPolicy policy;
  policy.retry_unavailable = true;
  policy.max_attempts = flags.Int("attempts", 4, 1);
  policy.initial_backoff_seconds = 0.02;
  policy.max_backoff_seconds = 0.5;
  if (flags.Toggle("no-retry", false)) policy.max_attempts = 1;
  const int connect_retries = flags.Int("retries", 0, 0);
  flags.RefuseUnread();

  std::string response_line;
  memo::serve::JsonObject answer;
  bool answered = false;  // the last response read as a JSON object
  const memo::Status status =
      policy.Run("serve.query", [&]() -> memo::Status {
        const auto response = memo::serve::QueryOverSocket(
            socket_path, line, connect_retries);
        // Connect/transport failures surface as UNAVAILABLE and ride the
        // same retry loop as server-side shedding.
        if (!response.ok()) return response.status();
        response_line = *response;
        answered = memo::serve::ReadJsonObject(response_line, &answer).ok();
        if (answered && answer.Get("retryable") == "true") {
          const int code = std::atoi(answer.Get("code").c_str());
          return memo::Status(
              static_cast<memo::StatusCode>(code),
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
  return answered && answer.Get("code") == "0" ? 0 : 1;
}

/// Model config for synthetic trace recording: a Table-2 preset via
/// --model, or a small custom shape via --layers/--hidden/... (defaults
/// are deliberately tiny so `trace record` runs in milliseconds). Each
/// custom dimension is at most 2^20 and the depth at most 1,024, so no one
/// tensor's byte count overflows int64 even at 2^40 tokens.
memo::model::ModelConfig TraceModelConfig(Flags& flags) {
  if (flags.Has("model")) {
    auto config = memo::model::ModelByName(flags.Text("model"));
    if (!config.ok()) {
      std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
      std::exit(2);
    }
    return config.value();
  }
  constexpr int kMaxDim = 1 << 20;
  const int hidden = flags.Int("hidden", 512, 1, kMaxDim);
  memo::model::ModelConfig config;
  config.name = "custom";
  config.num_layers = flags.Int("layers", 4, 1, 1024);
  config.hidden = hidden;
  config.num_heads = flags.Int("heads", 8, 1, kMaxDim);
  config.ffn_hidden =
      flags.Int("ffn", std::min(4 * hidden, kMaxDim), 1, kMaxDim);
  config.vocab = flags.Int("vocab", 4096, 1, kMaxDim);
  return config;
}

int CmdTraceRecord(Flags& flags) {
  using memo::core::kMaxSeqLen;
  const std::string out = flags.Output("out", /*required=*/true);
  const auto generate = flags.Choice(
      "kind", &memo::model::GenerateVariableLengthWorkload,
      {{"varlen", &memo::model::GenerateVariableLengthWorkload},
       {"moe", &memo::model::GenerateMoeWorkload},
       {"diurnal", &memo::model::GenerateDiurnalWorkload}});
  const memo::model::ModelConfig config = TraceModelConfig(flags);
  memo::model::TraceGenOptions base;
  base.seq_local = flags.Seq("seq", 8 * memo::kSeqK, 1, kMaxSeqLen);
  base.tensor_parallel = flags.Int("tp", 1, 1, 1 << 20);
  if (flags.Toggle("full-recompute", false)) {
    base.mode = memo::model::ActivationMode::kFullRecompute;
  }
  memo::model::WorkloadGenOptions gen;
  gen.iterations = flags.Int("iterations", 8, 1);
  gen.seed = flags.Int<std::uint64_t>("seed", 1);
  gen.seq_local_min = flags.Seq("seq-min", 4 * memo::kSeqK, 1, kMaxSeqLen);
  gen.seq_local_max = flags.Seq("seq-max", 16 * memo::kSeqK, 1, kMaxSeqLen);
  // Keeps every drawn FFN scale, 1 +- spread, in [0, 2] before the 0.25
  // clamp.
  gen.moe_spread = flags.Real("moe-spread", 0.75, 0.0, 1.0);
  const memo::trace::TraceWriterOptions writer_options =
      ReadWriterOptions(flags);
  flags.RefuseUnread();
  // The generators assert on shapes they cannot build: reject them here.
  if (config.hidden % config.num_heads != 0) {
    std::fprintf(stderr, "--heads must divide --hidden (got %lld and %lld)\n",
                 static_cast<long long>(config.num_heads),
                 static_cast<long long>(config.hidden));
    return 2;
  }
  if (gen.seq_local_min > gen.seq_local_max) {
    std::fprintf(stderr, "--seq-min must not exceed --seq-max (got %s > %s)\n",
                 memo::FormatSeqLen(gen.seq_local_min).c_str(),
                 memo::FormatSeqLen(gen.seq_local_max).c_str());
    return 2;
  }

  const memo::model::WorkloadTrace workload = generate(config, base, gen);
  if (const memo::Status live = workload.CheckLiveBytes(); !live.ok()) {
    std::fprintf(stderr, "%s\n", live.ToString().c_str());
    return 2;
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

int CmdTraceInfo(Flags& flags) {
  const std::string in = flags.Text("in", /*required=*/true);
  const bool json = flags.Toggle("json", false);
  flags.RefuseUnread();
  const auto reader = memo::trace::TraceReader::Open(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const memo::trace::TraceReader& r = *reader;
  const std::uint64_t fingerprint = r.ContentFingerprint();
  if (json) {
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

int CmdTraceConvert(Flags& flags) {
  const std::string in = flags.Text("in", /*required=*/true);
  const std::string out = flags.Output("out", /*required=*/true);
  const bool binary =
      flags.Choice("to", false, {{"json", false}, {"binary", true}});
  // Re-encoding can toggle compression (--raw) and resize the chunks.
  const memo::trace::TraceWriterOptions writer_options =
      binary ? ReadWriterOptions(flags) : memo::trace::TraceWriterOptions{};
  flags.RefuseUnread();

  const auto reader = memo::trace::TraceReader::Open(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const auto workload = memo::trace::ReadWorkload(*reader);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const std::string payload =
      binary ? memo::trace::EncodeWorkload(*workload, writer_options)
             : memo::trace::WorkloadToJson(*workload);
  const memo::Status written =
      memo::WriteWholeFile(out, payload, binary ? "trace" : "trace JSON",
                           memo::WriteMode::kInPlace);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), payload.size());
  return 0;
}

int CmdTraceDiff(Flags& flags) {
  const std::string a = flags.Text("a", /*required=*/true);
  const std::string b = flags.Text("b", /*required=*/true);
  const bool json = flags.Toggle("json", false);
  flags.RefuseUnread();
  auto diff = memo::trace::DiffTraceFiles(a, b);
  if (!diff.ok()) {
    std::fprintf(stderr, "%s\n", diff.status().ToString().c_str());
    return 2;
  }
  if (json) {
    std::string line = std::string("{\"equal\":") +
                       (diff->equal ? "true" : "false") +
                       ",\"differences\":[";
    for (std::size_t i = 0; i < diff->differences.size(); ++i) {
      if (i > 0) line += ",";
      line += "\"" + diff->differences[i] + "\"";
    }
    line += "]}";
    std::printf("%s\n", line.c_str());
  } else if (diff->equal) {
    std::printf("traces are identical\n");
  } else {
    for (const std::string& line : diff->differences) {
      std::printf("%s\n", line.c_str());
    }
  }
  return diff->equal ? 0 : 1;
}

int CmdTraceReplay(Flags& flags) {
  const std::string in = flags.Text("in", /*required=*/true);
  const std::string out = flags.Output("out");
  memo::trace::ReplayOptions options;
  options.allocator.capacity_bytes = flags.Bytes(
      "capacity-gib", memo::kGiB, /*zero_ok=*/false, 80 * memo::kGiB);
  options.static_bytes =
      flags.Bytes("static-gib", memo::kGiB, /*zero_ok=*/true, 0);
  options.run_planner = !flags.Toggle("no-planner", false);
  flags.RefuseUnread();

  auto summary = memo::trace::ReplayTraceFile(in, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  const std::string json = summary->ToJson();
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

void Usage() {
  std::fprintf(stderr,
               "usage: memo_cli <run|plan|maxseq|alpha|train|serve|query|"
               "trace> [--flag value]...\n"
               "  run    --model 7B --seq 1024K --gpus 8 [--system memo]\n"
               "         [--tp N --cp N --pp N --dp N --sp N] [--alpha X]\n"
               "         [--host-gib G --nvme-gib G --nvme-gbps B]\n"
               "  plan   --model 7B --seq 512K --gpus 8 --tp 4 --cp 2\n"
               "         [--out plan.txt]\n"
               "  maxseq --model 7B --gpus 8 [--system memo] [--step 128K]\n"
               "  alpha  --model 7B --seq 512K --gpus 8 --tp 4 --cp 2\n"
               "  (run, plan, maxseq, alpha and query share the request\n"
               "   fields of serve/protocol.h as flags: --host-gib etc.;\n"
               "   --kind is query's alone)\n"
               "  train  --layers 4 --seq 64 --alpha 0.5 [--async 0]\n"
               "         [--backend ram|disk|tiered --ram-cap-mib M\n"
               "          --disk-gbps B]\n"
               "         [--checkpoint-dir D --checkpoint-every N\n"
               "          --resume 1]\n"
               "         [--fault \"site:p=0.05,...;site2:...\"\n"
               "          --fault-seed S]\n"
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
               "                 [--raw --chunk-records N]\n"
               "         diff    --a x.memotrc --b y.memotrc [--json]\n"
               "         replay  --in t.memotrc [--out summary.json]\n"
               "                 [--capacity-gib G --static-gib G]\n"
               "                 [--no-planner]\n"
               "  every command: [--trace-out t.json --metrics-out m.json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string name = argv[1];
  int first = 2;
  if (name == "trace") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr,
                   "trace requires a verb: record, info, convert, diff or "
                   "replay\n");
      Usage();
      return 2;
    }
    name += std::string(" ") + argv[2];
    first = 3;
  }
  const std::map<std::string, int (*)(Flags&)> commands = {
      {"run", CmdRun},           {"plan", CmdPlan},
      {"maxseq", CmdMaxSeq},     {"alpha", CmdAlpha},
      {"train", CmdTrain},       {"serve", CmdServe},
      {"query", CmdQuery},       {"trace record", CmdTraceRecord},
      {"trace info", CmdTraceInfo},
      {"trace convert", CmdTraceConvert},
      {"trace diff", CmdTraceDiff},
      {"trace replay", CmdTraceReplay}};
  const auto command = commands.find(name);
  if (command == commands.end()) {
    std::fprintf(stderr, "unknown command \"%s\"\n", name.c_str());
    Usage();
    return 2;
  }
  Flags flags(name, argc, argv, first);
  ObsOutputs obs(flags);
  const int rc = command->second(flags);
  const int written = obs.Finish();
  return rc != 0 ? rc : written;
}
