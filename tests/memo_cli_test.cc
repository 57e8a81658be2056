// End-to-end smoke matrix for the memo_cli binary (path baked in via
// MEMO_CLI_PATH). Each leg spawns the real executable the way a user would:
// `train` across all three stash backends with trace + metrics capture, and
// the planner `run` path with trace capture. Asserts exit codes, that the
// emitted JSON parses, and that the loss curve is backend-independent —
// the CLI-level form of the bit-identical-restores guarantee.

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/fingerprint.h"
#include "test_json.h"

namespace {

using memo::testjson::Parse;
using memo::testjson::ParseResult;
using memo::testjson::Value;

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs the CLI with `args`, capturing combined output and the exit code.
CliResult RunCli(const std::string& args) {
  CliResult result;
  const std::string cmd = std::string(MEMO_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// The "final loss 1.234567" value as the printed string, so cross-backend
/// comparison is exact to all printed digits.
std::string FinalLossString(const std::string& output) {
  const std::string key = "final loss ";
  const std::size_t pos = output.find(key);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + key.size();
  const std::size_t end = output.find(' ', start);
  return output.substr(start, end - start);
}

/// Parses a trace file and returns its traceEvents array (empty on error).
std::vector<Value> TraceEvents(const std::string& path,
                               ::testing::AssertionResult* note = nullptr) {
  (void)note;
  const std::string json = ReadFile(path);
  EXPECT_FALSE(json.empty()) << "trace file " << path << " missing or empty";
  const ParseResult parsed = Parse(json);
  EXPECT_TRUE(parsed.ok) << "trace file " << path
                         << " is not valid JSON (offset "
                         << parsed.error_offset << ")";
  if (!parsed.ok) return {};
  EXPECT_TRUE(parsed.value.at("traceEvents").is_array());
  return parsed.value.at("traceEvents").array;
}

TEST(MemoCliTest, TrainBackendMatrixIsLossIdenticalAndObservable) {
  const std::string train_args =
      "train --iterations 4 --layers 4 --hidden 16 --ffn 32 --seq 24 "
      "--vocab 17";
  std::vector<std::string> final_losses;
  for (const std::string backend : {"ram", "disk", "tiered"}) {
    const std::string trace_path =
        ::testing::TempDir() + "memo_cli_trace_" + backend + ".json";
    const std::string metrics_path =
        ::testing::TempDir() + "memo_cli_metrics_" + backend + ".json";
    const CliResult run =
        RunCli(train_args + " --backend " + backend + " --trace-out " +
               trace_path + " --metrics-out " + metrics_path);
    ASSERT_EQ(run.exit_code, 0) << "backend " << backend << ":\n"
                                << run.output;

    const std::string loss = FinalLossString(run.output);
    ASSERT_FALSE(loss.empty()) << "no final-loss line for " << backend
                               << ":\n" << run.output;
    final_losses.push_back(loss);

    // The trace must parse and actually contain events from this run.
    const std::vector<Value> events = TraceEvents(trace_path);
    EXPECT_GT(events.size(), 0u) << "empty trace for backend " << backend;

    // The metrics snapshot must parse and carry the training counters.
    const ParseResult metrics = Parse(ReadFile(metrics_path));
    ASSERT_TRUE(metrics.ok) << "metrics JSON invalid for " << backend;
    EXPECT_TRUE(metrics.value.at("counters").has("train.iterations"))
        << "backend " << backend;
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
  }

  // Restores are bit-exact on every backend, so the printed loss (all six
  // decimals) must not depend on where the stash bytes lived.
  ASSERT_EQ(final_losses.size(), 3u);
  EXPECT_EQ(final_losses[0], final_losses[1]);
  EXPECT_EQ(final_losses[0], final_losses[2]);
}

TEST(MemoCliTest, TieredTrainTraceCoversTheInstrumentedSubsystems) {
  const std::string trace_path =
      ::testing::TempDir() + "memo_cli_trace_subsystems.json";
  // A ~1 KB RAM tier: every swapped layer of even this tiny model spills,
  // so the disk subsystem shows up in the trace. Four layers, because the
  // last two stay in the rounding buffers and never reach the stash. A loop
  // the pool runs inline records no span, so the sequence is long enough
  // (48 rows) for the fc1 weight-gradient pass to be dispatched.
  const CliResult run = RunCli(
      "train --iterations 3 --layers 4 --hidden 16 --ffn 32 --seq 48 "
      "--vocab 17 --backend tiered --ram-cap-mib 0.001 --trace-out " +
      trace_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;

  // The acceptance bar for the observability layer: spans from at least
  // four distinct instrumented subsystems in one tiered training trace.
  std::vector<std::string> want = {"train", "offload", "disk", "pool"};
  std::vector<std::string> missing;
  const std::vector<Value> events = TraceEvents(trace_path);
  for (const std::string& category : want) {
    bool found = false;
    for (const Value& e : events) {
      if (e.at("cat").string == category) {
        found = true;
        break;
      }
    }
    if (!found) missing.push_back(category);
  }
  EXPECT_TRUE(missing.empty())
      << "trace lacks spans from: " << ::testing::PrintToString(missing);
  std::remove(trace_path.c_str());
}

TEST(MemoCliTest, RunCommandEmitsPlannerAndSimulatorSpans) {
  const std::string trace_path =
      ::testing::TempDir() + "memo_cli_run_trace.json";
  const CliResult run = RunCli(
      "run --model 7B --seq 64K --gpus 8 --tp 4 --cp 2 --trace-out " +
      trace_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;

  bool planner = false;
  bool sim = false;
  for (const Value& e : TraceEvents(trace_path)) {
    if (e.at("cat").string == "planner") planner = true;
    if (e.at("cat").string == "sim") sim = true;
  }
  EXPECT_TRUE(planner) << "no planner spans in the run trace";
  EXPECT_TRUE(sim) << "no simulator-stream events in the run trace";
  std::remove(trace_path.c_str());
}

/// The first whitespace-delimited token after `key` in `output`.
std::string TokenAfter(const std::string& output, const std::string& key) {
  const std::size_t pos = output.find(key);
  if (pos == std::string::npos) return "";
  const std::size_t start = output.find_first_not_of(' ', pos + key.size());
  if (start == std::string::npos) return "";
  return output.substr(start, output.find_first_of(" \n", start) - start);
}

TEST(MemoCliTest, AlphaReportsTheAlphaRunTrainsWith) {
  // `alpha` solves the LP `run` solves, NVMe tier included, and names the
  // disk-tier bounds. Without the NVMe tier the 64 GiB host cannot hold the
  // always-offloaded bytes at all.
  const std::string config = "--model 7B --seq 512K --gpus 8 --tp 4 --cp 2";
  for (const std::string tiers : {"--host-gib 64 --nvme-gib 8192",
                                  "--host-gib 256 --nvme-gib 8192"}) {
    const CliResult alpha = RunCli("alpha " + config + " " + tiers);
    ASSERT_EQ(alpha.exit_code, 0) << alpha.output;
    EXPECT_NE(alpha.output.find("disk-bandwidth"), std::string::npos)
        << alpha.output;
    EXPECT_NE(alpha.output.find(" + disk "), std::string::npos)
        << alpha.output;
    const CliResult run = RunCli("run " + config + " " + tiers);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(TokenAfter(alpha.output, "alpha ="),
              TokenAfter(run.output, "swap fraction alpha"))
        << alpha.output << run.output;
  }
  const CliResult no_disk = RunCli("alpha " + config + " --host-gib 64");
  EXPECT_EQ(no_disk.exit_code, 1) << no_disk.output;
  EXPECT_NE(no_disk.output.find("OUT_OF_HOST_MEMORY"), std::string::npos)
      << no_disk.output;

  // A forced alpha is the alpha `run` trains with, unquantized, and all
  // three commands check it against RAM plus disk: at alpha 1 a 256 GiB
  // host is X_oohm unless the NVMe tier takes the rest.
  for (const std::string forced : {"0.25", "0.3"}) {
    const std::string flags = config + " --alpha " + forced;
    const CliResult run = RunCli("run " + flags);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    const std::string trained = TokenAfter(run.output, "swap fraction alpha");
    const CliResult alpha = RunCli("alpha " + flags);
    ASSERT_EQ(alpha.exit_code, 0) << alpha.output;
    EXPECT_EQ(TokenAfter(alpha.output, "alpha ="), trained) << alpha.output;
    EXPECT_NE(alpha.output.find("(forced)"), std::string::npos)
        << alpha.output;
    const CliResult plan = RunCli("plan " + flags);
    ASSERT_EQ(plan.exit_code, 0) << plan.output;
    EXPECT_NE(plan.output.find("alpha " + trained + ";"), std::string::npos)
        << plan.output << run.output;
  }
  for (const std::string command : {"run", "plan", "alpha"}) {
    const std::string flags = config + " --alpha 1 --host-gib 256";
    const CliResult host_only = RunCli(command + " " + flags);
    EXPECT_EQ(host_only.exit_code, 1) << command << ": " << host_only.output;
    EXPECT_NE(host_only.output.find("OUT_OF_HOST_MEMORY"), std::string::npos)
        << command << ": " << host_only.output;
    const CliResult spills = RunCli(command + " " + flags + " --nvme-gib 8192");
    EXPECT_EQ(spills.exit_code, 0) << command << ": " << spills.output;
  }

  // `plan` and `alpha` profile MEMO only: another system is out of their
  // domain, not a MEMO answer under a baseline's name.
  for (const std::string command : {"plan", "alpha"}) {
    for (const std::string system : {"megatron", "deepspeed"}) {
      const CliResult other =
          RunCli(command + " " + config + " --system " + system);
      EXPECT_EQ(other.exit_code, 2) << command << " " << system << ":\n"
                                    << other.output;
      EXPECT_EQ(other.output.rfind("--system ", 0), 0u)
          << command << " " << system << ":\n" << other.output;
    }
  }
}

TEST(MemoCliTest, PlanCountsModelStateInTheProfilingFootprint) {
  // §4.3.2: the vanilla profiling pass needs Unified Memory once its
  // activations plus the model state (plus the 1 GiB reserve) outgrow the
  // 80 GiB device. At 2048K neither half alone does.
  const struct {
    const char* flags;
    const char* needs_um;
  } cases[] = {
      {"--seq 2048K --tp 1 --cp 8", "yes"},  // 56.0 + 35.1 GiB
      {"--seq 2048K --tp 8 --cp 1", "yes"},  // 74.1 + 12.8 GiB
      {"--seq 512K --tp 4 --cp 2", "no"},    // 14.5 + 16.0 GiB
      {"--seq 512K --tp 1 --cp 8", "no"},    // 14.0 + 35.1 GiB
  };
  for (const auto& c : cases) {
    const CliResult plan =
        RunCli(std::string("plan --model 7B --gpus 8 ") + c.flags);
    ASSERT_EQ(plan.exit_code, 0) << c.flags << ":\n" << plan.output;
    EXPECT_EQ(TokenAfter(plan.output, "profiling needs UM:"), c.needs_um)
        << c.flags << ":\n" << plan.output;
  }
}

TEST(MemoCliTest, UnwritableTracePathFailsWithNonZeroExit) {
  const CliResult run = RunCli(
      "train --iterations 1 --layers 1 --hidden 16 --ffn 32 --seq 16 "
      "--vocab 17 --trace-out /nonexistent-dir/trace.json");
  EXPECT_NE(run.exit_code, 0)
      << "CLI claimed success despite an unwritable trace path:\n"
      << run.output;
}

TEST(MemoCliTest, UnknownBackendIsRejected) {
  const CliResult run = RunCli("train --iterations 1 --backend floppy");
  EXPECT_NE(run.exit_code, 0);
  EXPECT_NE(run.output.find("unknown backend"), std::string::npos)
      << run.output;
}

TEST(MemoCliTest, NonPositiveNumericFlagsAreRejectedUpFront) {
  const std::string train =
      "train --iterations 1 --layers 1 --hidden 16 --ffn 32 --seq 16 "
      "--vocab 17 ";
  // A size flag past 2^63 bytes (or not finite) has no byte count: casting
  // it would be undefined behaviour, which the ubsan leg reports.
  const struct {
    std::string args;
    const char* flag;
  } legs[] = {
      {train + "--ram-cap-mib -3", "--ram-cap-mib"},
      {train + "--ram-cap-mib 0", "--ram-cap-mib"},
      {train + "--ram-cap-mib 1e300", "--ram-cap-mib"},
      {train + "--ram-cap-mib inf", "--ram-cap-mib"},
      {train + "--ram-cap-mib nan", "--ram-cap-mib"},
      {train + "--backend disk --disk-gbps -1", "--disk-gbps"},
      {train + "--checkpoint-dir /tmp --checkpoint-every 0",
       "--checkpoint-every"},
      // An unbindable socket: a missed check fails fast instead of serving.
      {"serve --socket /nonexistent-dir/memo.sock --cache-mib 1e300",
       "--cache-mib"},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_NE(run.output.find(std::string(leg.flag) +
                              " must be a positive number"),
              std::string::npos)
        << leg.args << ":\n" << run.output;
  }
}

TEST(MemoCliTest, CheckpointAndFaultFlagCombosAreValidated) {
  const std::string base =
      "train --iterations 1 --layers 1 --hidden 16 --ffn 32 --seq 16 "
      "--vocab 17 ";
  CliResult run = RunCli(base + "--checkpoint-every 2");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("require --checkpoint-dir"), std::string::npos)
      << run.output;

  run = RunCli(base + "--resume 1");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("require --checkpoint-dir"), std::string::npos)
      << run.output;

  run = RunCli(base + "--fault \"not a valid fault spec\"");
  EXPECT_EQ(run.exit_code, 2) << run.output;

  run = RunCli(base + "--metrics-out /nonexistent-dir/metrics.json");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("missing or not writable"), std::string::npos)
      << run.output;
}

TEST(MemoCliTest, ResumeReproducesTheFinalLossPastACorruptCheckpoint) {
  const std::string dir = ::testing::TempDir() + "memo_cli_ckpts";
  ::mkdir(dir.c_str(), 0755);
  for (const char* step : {"000002", "000004", "000006"}) {
    std::remove((dir + "/ckpt_" + step + ".memockpt").c_str());
  }

  const std::string train_args =
      "train --iterations 6 --layers 2 --hidden 16 --ffn 32 --seq 24 "
      "--vocab 17 --checkpoint-dir " + dir + " --checkpoint-every 2";
  const CliResult full = RunCli(train_args);
  ASSERT_EQ(full.exit_code, 0) << full.output;
  EXPECT_NE(full.output.find("checkpoints written: 3"), std::string::npos)
      << full.output;
  const std::string reference_loss = FinalLossString(full.output);
  ASSERT_FALSE(reference_loss.empty()) << full.output;

  // Simulate a crash that lost the newest checkpoint and damaged the next
  // one: resume must fall back to step 2 and replay to the identical loss.
  ASSERT_EQ(std::remove((dir + "/ckpt_000006.memockpt").c_str()), 0);
  const std::string damaged = dir + "/ckpt_000004.memockpt";
  FILE* f = std::fopen(damaged.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 48, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 48, SEEK_SET), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  const CliResult resumed = RunCli(train_args + " --resume 1");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resumed from checkpoint at step 2"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(FinalLossString(resumed.output), reference_loss)
      << resumed.output;
}

TEST(MemoCliTest, InjectedTransientFaultLeavesTheLossUntouched) {
  const std::string train_args =
      "train --iterations 3 --layers 4 --hidden 16 --ffn 32 --seq 24 "
      "--vocab 17 --backend disk";
  const CliResult clean = RunCli(train_args);
  ASSERT_EQ(clean.exit_code, 0) << clean.output;
  const std::string reference_loss = FinalLossString(clean.output);
  ASSERT_FALSE(reference_loss.empty()) << clean.output;

  const CliResult faulted = RunCli(
      train_args +
      " --fault \"disk.page_write:nth=1,max=1\" --fault-seed 7");
  ASSERT_EQ(faulted.exit_code, 0) << faulted.output;
  EXPECT_EQ(FinalLossString(faulted.output), reference_loss)
      << faulted.output;
}

TEST(MemoCliTest, UnknownSubcommandExitsTwoWithUsage) {
  const CliResult run = RunCli("frobnicate --model 7B");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown command \"frobnicate\""),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("usage: memo_cli"), std::string::npos)
      << run.output;
}

TEST(MemoCliTest, MalformedFlagValuesExitTwoWithUsage) {
  const struct {
    const char* args;
    const char* expect;
  } legs[] = {
      {"run --gpus banana", "--gpus must be an integer"},
      {"run --seq 12Q", "--seq must be a sequence length"},
      {"run --alpha half", "--alpha must be a number"},
      {"maxseq --step x128K", "--step must be a sequence length"},
      {"train --iterations 2x", "--iterations must be an integer"},
      {"run --model", "flag --model is missing a value"},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_NE(run.output.find(leg.expect), std::string::npos)
        << leg.args << ":\n" << run.output;
    EXPECT_NE(run.output.find("usage: memo_cli"), std::string::npos)
        << leg.args << ":\n" << run.output;
  }

  // Documented boolean toggles still work bare (trailing or mid-line).
  const CliResult bare = RunCli(
      "train --layers 2 --seq 48 --iterations 2 --alpha 0.5 --async");
  EXPECT_EQ(bare.exit_code, 0) << bare.output;
}

TEST(MemoCliTest, OutOfDomainPlanningFlagsExitTwoNamingTheFlag) {
  // Each of these used to abort (exit 134) or print a bogus answer.
  const struct {
    const char* args;
    const char* flag;
  } legs[] = {
      {"run --seq 0", "--seq "},
      {"run --gpus 12", "--gpus "},
      {"plan --seq 0 --tp 4 --cp 2", "--seq "},
      {"alpha --gpus 0", "--gpus "},
      {"run --alpha nan --tp 4 --cp 2", "--alpha "},
      {"maxseq --step 0", "--step "},
      {"run --host-gib 1e30", "--host-gib "},
      {"run --alpha-steps -3", "--alpha-steps "},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_EQ(run.output.rfind(leg.flag, 0), 0u)
        << leg.args << ":\n" << run.output;
    EXPECT_NE(run.output.find("usage: memo_cli"), std::string::npos)
        << leg.args << ":\n" << run.output;
  }
}

TEST(MemoCliTest, OutOfDomainTrainFlagsExitTwoNamingTheFlag) {
  // Each of these used to abort (134), divide by zero (136), crash on an
  // empty loss curve (139), print a NaN loss, or train a model with no
  // layers.
  const struct {
    const char* args;
    const char* flag;
  } legs[] = {
      {"train --heads 3", "--heads "},
      {"train --alpha 2", "--alpha "},
      {"train --vocab 0", "--vocab "},
      {"train --iterations 0", "--iterations "},
      {"train --seq 0", "--seq "},
      {"train --layers 0", "--layers "},
      {"train --hidden 0", "--hidden "},
      {"train --policy foo", "--policy "},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_EQ(run.output.rfind(leg.flag, 0), 0u)
        << leg.args << ":\n" << run.output;
  }
}

TEST(MemoCliTest, FlagsPastTheirWidthOrDomainExitTwoNamingTheFlag) {
  // Each of these used to be narrowed (4294967298 iterations trained 2),
  // abort (134), start 257 session threads, run with a meaningless value,
  // or reach undefined behaviour that the ubsan leg reports.
  const std::string train = "train --layers 1 --hidden 16 --ffn 32 --vocab 17 ";
  const std::string tiny = train + "--seq 16 --iterations 1 ";
  const std::string out =
      " --out " + ::testing::TempDir() + "cli_trace_domain.memotrc";
  const struct {
    std::string args;
    const char* flag;
  } legs[] = {
      {train + "--seq 16 --iterations 4294967298", "--iterations "},
      {train + "--iterations 1 --seq 4294967360", "--seq "},
      {"trace record --iterations 4294967297" + out, "--iterations "},
      {"trace record --seq-min 4611686018427387904 "
       "--seq-max 4611686018427387904" + out,
       "--seq-min "},
      {"trace record --kind moe --seq 4611686018427387904" + out, "--seq "},
      {"serve --socket /nonexistent-dir/memo.sock --sessions 257",
       "--sessions "},
      {tiny + "--fault-seed -1", "--fault-seed "},
      {tiny + "--fault-seed 1e300", "--fault-seed "},
      {tiny + "--fault-seed 1.5", "--fault-seed "},
      {"trace record --kind moe --moe-spread 1e300" + out, "--moe-spread "},
      {"trace record --kind moe --moe-spread -1" + out, "--moe-spread "},
      {"trace record --kind moe --moe-spread nan" + out, "--moe-spread "},
      {"trace record --kind moe --moe-spread inf" + out, "--moe-spread "},
      // A throttle far below 1 MB/s waits longer than int64 microseconds
      // hold for the spilled 21.6 KiB.
      {"train --layers 4 --hidden 16 --ffn 32 --seq 24 --vocab 17 "
       "--iterations 1 --backend disk --disk-gbps 1e-300",
       "--disk-gbps "},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_EQ(run.output.rfind(leg.flag, 0), 0u)
        << leg.args << ":\n" << run.output;
    EXPECT_NE(run.output.find("usage: memo_cli"), std::string::npos)
        << leg.args << ":\n" << run.output;
  }

  // A seed is any unsigned 64-bit integer.
  const CliResult widest = RunCli(tiny + "--fault-seed 18446744073709551615");
  EXPECT_EQ(widest.exit_code, 0) << widest.output;
}

TEST(MemoCliTest, FlagsTheCommandDoesNotReadExitTwoNamingTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } legs[] = {
      {"train --alhpa 0.25", "--alhpa "},
      {"maxseq --model 7B --gpus 8 --out p.txt", "--out "},
      {"trace info --in t.memotrc --raw", "--raw "},
      {"query --socket s --json '{}' --model 13B", "--model "},
      // `run` picks its own kind; of the planning commands only `query`
      // reads --kind.
      {"run --kind maxseq", "--kind "},
  };
  for (const auto& leg : legs) {
    const CliResult run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_EQ(run.output.rfind(leg.flag, 0), 0u)
        << leg.args << ":\n" << run.output;
  }

  // Every command honours --trace-out and --metrics-out.
  const std::string trace_path = ::testing::TempDir() + "memo_cli_plan.json";
  const CliResult plan = RunCli(
      "plan --model 7B --seq 64K --gpus 8 --tp 4 --cp 2 --trace-out " +
      trace_path);
  ASSERT_EQ(plan.exit_code, 0) << plan.output;
  EXPECT_GT(TraceEvents(trace_path).size(), 0u);
  const std::string metrics_path =
      ::testing::TempDir() + "memo_cli_record_metrics.json";
  const std::string trace_out =
      ::testing::TempDir() + "cli_trace_metrics.memotrc";
  const CliResult record =
      RunCli("trace record --iterations 1 --out " + trace_out +
             " --metrics-out " + metrics_path);
  ASSERT_EQ(record.exit_code, 0) << record.output;
  EXPECT_TRUE(Parse(ReadFile(metrics_path)).ok) << ReadFile(metrics_path);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove(trace_out.c_str());
}

/// The value of `"key":` in a flat response line, up to the next , or }.
std::string JsonToken(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  return line.substr(start, line.find_first_of(",}", start) - start);
}

TEST(MemoCliTest, RunAndTheServedStrategyQueryAgree) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_cli_parity.sock";
  std::remove(socket_path.c_str());
  const std::string cli = MEMO_CLI_PATH;
  const struct {
    const char* flags;
    const char* json;
  } legs[] = {
      {"--system deepspeed --sp 8 --seq 256K",
       R"({"kind":"strategy","system":"deepspeed","sp":8,"seq":"256K"})"},
      {"--system megatron --tp 4 --cp 2 --seq 128K",
       R"({"kind":"strategy","system":"megatron","tp":4,"cp":2,)"
       R"("seq":"128K"})"},
  };
  // One shell: serve in the background with a budget of four answers, then
  // each leg as query flags and as the JSON line (one answer per line).
  // Every query runs, so the server always spends its budget and exits.
  std::string script = "serve --socket " + socket_path +
                       " --max-requests 4 >/dev/null 2>&1 &";
  for (const auto& leg : legs) {
    script += " " + cli + " query --socket " + socket_path +
              " --retries 40 --kind strategy " + leg.flags + "; " + cli +
              " query --socket " + socket_path + " --retries 10 --json '" +
              leg.json + "';";
  }
  const CliResult served = RunCli(script);
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < served.output.size();) {
    const std::size_t end = served.output.find('\n', start);
    lines.push_back(served.output.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  ASSERT_GE(lines.size(), 4u) << served.output;

  for (std::size_t i = 0; i < 2; ++i) {
    const std::string& from_flags = lines[2 * i];
    const std::string& from_json = lines[2 * i + 1];
    EXPECT_EQ(JsonToken(from_flags, "status"), "\"OK\"") << from_flags;
    // Same request, same fingerprint: the second answer is a cache hit.
    EXPECT_EQ(JsonToken(from_flags, "fingerprint"),
              JsonToken(from_json, "fingerprint"))
        << from_flags << "\n" << from_json;
    EXPECT_EQ(JsonToken(from_json, "cache_hit"), "true") << from_json;

    const CliResult run = RunCli(std::string("run ") + legs[i].flags);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    char served_mfu[32];
    std::snprintf(served_mfu, sizeof(served_mfu), "%.2f%%",
                  std::stod(JsonToken(from_flags, "mfu")) * 100.0);
    EXPECT_EQ(TokenAfter(run.output, "MFU"), served_mfu)
        << run.output << "\n" << from_flags;
  }
}

TEST(MemoCliTest, ServeAndQueryRequireASocketPath) {
  CliResult run = RunCli("serve");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("serve requires --socket"), std::string::npos)
      << run.output;

  run = RunCli("query --model 7B");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("query requires --socket"), std::string::npos)
      << run.output;

  run = RunCli("serve --socket /tmp/x.sock --sessions 0");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--sessions must be a positive number"),
            std::string::npos)
      << run.output;
}

TEST(MemoCliTest, ServePrintsItsRequestDeadline) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_cli_deadline.sock";
  const std::string query = std::string(MEMO_CLI_PATH) + " query --socket " +
                            socket_path +
                            " --retries 40 --json '{\"seq\":0}' >/dev/null";
  // A budget of one answer: the refused query spends it without a solve,
  // and the server exits on its own.
  for (const auto& [flag, deadline] :
       {std::pair{"", "deadline 120000 ms)"},
        std::pair{" --request-deadline-ms 250", "deadline 250 ms)"}}) {
    std::remove(socket_path.c_str());
    const CliResult run = RunCli("serve --socket " + socket_path +
                                 " --max-requests 1" + flag + " & " + query);
    EXPECT_NE(run.output.find("serving on " + socket_path), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(deadline), std::string::npos) << run.output;
  }
}

TEST(MemoCliTest, ServeAnswersQueryEndToEndOverTheSocket) {
  const std::string socket_path =
      ::testing::TempDir() + "memo_cli_serve.sock";
  std::remove(socket_path.c_str());

  // One shell: serve in the background with a 2-request budget (it exits on
  // its own), query it twice with connect retries. The pipeline's exit code
  // is the last query's.
  const CliResult run = RunCli(
      "serve --socket " + socket_path +
      " --sessions 2 --max-requests 2 >/dev/null 2>&1 & " +
      std::string(MEMO_CLI_PATH) + " query --socket " + socket_path +
      " --retries 40 --kind strategy --model 7B --seq 64K --gpus 8 "
      "--tp 4 --cp 2 && " +
      std::string(MEMO_CLI_PATH) + " query --socket " + socket_path +
      " --retries 10 --kind strategy --model 7B --seq 64K --gpus 8 "
      "--tp 4 --cp 2");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // First answer is a cold solve, the repeat is served from the plan cache.
  EXPECT_NE(run.output.find("\"cache_hit\":false"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"cache_hit\":true"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"mfu\":"), std::string::npos) << run.output;
}

TEST(MemoCliTest, TraceRecordInfoDiffReplayConvertEndToEnd) {
  // Small custom model so the whole leg runs in well under a second.
  const std::string record_args =
      "trace record --layers 2 --hidden 128 --heads 4 --ffn 256 "
      "--vocab 256 --seq 512 --seq-min 256 --seq-max 4096 --iterations 2";
  const std::string path_a = ::testing::TempDir() + "cli_trace_a.memotrc";
  const std::string path_a2 = ::testing::TempDir() + "cli_trace_a2.memotrc";
  const std::string path_b = ::testing::TempDir() + "cli_trace_b.memotrc";

  CliResult run = RunCli(record_args + " --seed 5 --out " + path_a);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("recorded 2 iterations"), std::string::npos)
      << run.output;
  ASSERT_EQ(RunCli(record_args + " --seed 5 --out " + path_a2).exit_code, 0);
  ASSERT_EQ(RunCli(record_args + " --seed 6 --out " + path_b).exit_code, 0);

  // info --json: machine-readable header summary.
  run = RunCli("trace info --json --in " + path_a);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const ParseResult info = Parse(run.output);
  ASSERT_TRUE(info.ok) << run.output;
  EXPECT_EQ(info.value.at("iterations").number, 2.0);
  EXPECT_GT(info.value.at("records").number, 0.0);
  EXPECT_TRUE(info.value.at("compressed").bool_value);

  // diff: same seed -> identical (exit 0); different seed -> exit 1 with
  // difference lines.
  run = RunCli("trace diff --a " + path_a + " --b " + path_a2);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("identical"), std::string::npos) << run.output;
  run = RunCli("trace diff --a " + path_a + " --b " + path_b);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("content_fingerprint"), std::string::npos)
      << run.output;

  // replay: summary JSON on stdout, one entry per iteration, and running
  // it twice produces byte-identical output (the regression contract).
  run = RunCli("trace replay --capacity-gib 4 --in " + path_a);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const ParseResult summary = Parse(run.output);
  ASSERT_TRUE(summary.ok) << run.output;
  EXPECT_TRUE(summary.value.at("per_iteration").is_array());
  EXPECT_EQ(summary.value.at("per_iteration").array.size(), 2u);
  const CliResult rerun =
      RunCli("trace replay --capacity-gib 4 --in " + path_a);
  EXPECT_EQ(rerun.output, run.output);

  // convert: the verbose JSON form must exist and dwarf the binary.
  const std::string json_path = ::testing::TempDir() + "cli_trace_a.json";
  run = RunCli("trace convert --to json --in " + path_a + " --out " +
               json_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string json = ReadFile(json_path);
  const std::string binary = ReadFile(path_a);
  ASSERT_FALSE(json.empty());
  EXPECT_GE(json.size(), 5 * binary.size())
      << "binary " << binary.size() << " vs JSON " << json.size();

  std::remove(path_a.c_str());
  std::remove(path_a2.c_str());
  std::remove(path_b.c_str());
  std::remove(json_path.c_str());
}

/// The "chunks" count `trace info --json` reports for `path`.
double ChunkCount(const std::string& path) {
  const CliResult info = RunCli("trace info --json --in " + path);
  EXPECT_EQ(info.exit_code, 0) << info.output;
  const ParseResult parsed = Parse(info.output);
  EXPECT_TRUE(parsed.ok) << info.output;
  return parsed.ok ? parsed.value.at("chunks").number : -1.0;
}

TEST(MemoCliTest, TraceConvertHonoursChunkRecords) {
  const std::string in = ::testing::TempDir() + "cli_trace_chunks.memotrc";
  const std::string plain = ::testing::TempDir() + "cli_trace_plain.memotrc";
  const std::string small = ::testing::TempDir() + "cli_trace_small.memotrc";
  ASSERT_EQ(RunCli("trace record --layers 2 --hidden 128 --heads 4 --ffn 256 "
                   "--vocab 256 --iterations 2 --out " + in)
                .exit_code,
            0);
  ASSERT_EQ(
      RunCli("trace convert --to binary --in " + in + " --out " + plain)
          .exit_code,
      0);
  const CliResult resized = RunCli("trace convert --to binary --in " + in +
                                   " --out " + small + " --chunk-records 16");
  ASSERT_EQ(resized.exit_code, 0) << resized.output;
  EXPECT_EQ(ChunkCount(plain), ChunkCount(in));
  EXPECT_GT(ChunkCount(small), ChunkCount(plain));
  // Same content in every encoding.
  EXPECT_EQ(RunCli("trace diff --a " + plain + " --b " + small).exit_code, 0);
  std::remove(in.c_str());
  std::remove(plain.c_str());
  std::remove(small.c_str());
}

TEST(MemoCliTest, TraceRecordRefusesWorkloadsPastTwoToTheSixtySecondLiveBytes) {
  // Within every flag's cap, yet the live bytes of a 65B MoE layer stack at
  // 2^40 tokens sum past 2^62: nothing is written.
  const std::string out = ::testing::TempDir() + "cli_trace_live.memotrc";
  std::remove(out.c_str());
  const CliResult run = RunCli(
      "trace record --model 65B --kind moe --seq 1073741824K --out " + out);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("2^62 live bytes"), std::string::npos)
      << run.output;
  EXPECT_TRUE(ReadFile(out).empty());
}

TEST(MemoCliTest, TraceReplayRefusesAFreeOfATensorNeverAllocated) {
  const std::string in = ::testing::TempDir() + "cli_trace_unpaired.memotrc";
  const std::string out = ::testing::TempDir() + "cli_trace_unpaired.json";
  ASSERT_EQ(RunCli("trace record --out " + in +
                   " --raw --iterations 1 --layers 1")
                .exit_code,
            0);
  // Byte 37, past the 24-byte header and the first 13-byte chunk header,
  // is the first record's op: turn that malloc into a free, then re-seal
  // the FNV-1a checksum that sits 16 bytes before the end.
  std::string data = ReadFile(in);
  ASSERT_GT(data.size(), 37u + 16u);
  ASSERT_EQ(data[37], 0);
  data[37] = 1;
  const std::size_t sum_at = data.size() - 16;
  const std::uint64_t sum = memo::Fnv1a64(data.data(), sum_at);
  for (int i = 0; i < 8; ++i) {
    data[sum_at + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(
      memo::WriteWholeFile(in, data, "trace", memo::WriteMode::kInPlace).ok());

  const CliResult replay = RunCli("trace replay --in " + in + " --out " + out);
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("INVALID_ARGUMENT:"), std::string::npos)
      << replay.output;
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(MemoCliTest, TraceSubcommandValidatesItsFlags) {
  CliResult run = RunCli("trace");
  EXPECT_EQ(run.exit_code, 2) << run.output;

  run = RunCli("trace record");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--out"), std::string::npos) << run.output;

  run = RunCli("trace info");
  EXPECT_EQ(run.exit_code, 2) << run.output;

  run = RunCli("trace bogus --in x");
  EXPECT_EQ(run.exit_code, 2) << run.output;

  run = RunCli("trace record --kind nope --out " + ::testing::TempDir() +
               "cli_trace_kind.memotrc");
  EXPECT_EQ(run.exit_code, 2) << run.output;

  run = RunCli("trace info --in /nonexistent/trace.memotrc");
  EXPECT_EQ(run.exit_code, 1) << run.output;

  // Shapes the generators cannot build, and sizes no byte count holds,
  // exit 2 naming the flag before any trace is generated or read.
  const std::string out =
      " --out " + ::testing::TempDir() + "cli_trace_bad.memotrc";
  const std::string in = " --in /nonexistent/trace.memotrc";
  const struct {
    std::string args;
    const char* flag;
  } legs[] = {
      {"trace record --seq-min 16K --seq-max 4K" + out, "--seq-min "},
      {"trace record --layers 0" + out, "--layers "},
      {"trace record --hidden 0" + out, "--hidden "},
      {"trace record --heads 0" + out, "--heads "},
      {"trace record --hidden 100 --heads 3" + out, "--heads "},
      {"trace record --tp 0" + out, "--tp "},
      {"trace record --kind moe --seq 0" + out, "--seq "},
      {"trace replay --capacity-gib 1e300" + in, "--capacity-gib "},
      {"trace replay --static-gib -1" + in, "--static-gib "},
      {"trace replay --static-gib 1e300" + in, "--static-gib "},
  };
  for (const auto& leg : legs) {
    run = RunCli(leg.args);
    EXPECT_EQ(run.exit_code, 2) << leg.args << ":\n" << run.output;
    EXPECT_EQ(run.output.rfind(leg.flag, 0), 0u)
        << leg.args << ":\n" << run.output;
  }
}

}  // namespace
