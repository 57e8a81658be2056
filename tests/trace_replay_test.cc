// Tests for the synthetic workload generators, the repaired
// alloc::ReplayTraceInto diagnostics, and the trace-driven replay engine:
// same seed -> same workload, same trace -> byte-identical summary JSON,
// and `trace diff` semantics at the library level.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "alloc/trace_replay.h"
#include "common/units.h"
#include "model/model_config.h"
#include "model/trace_gen.h"
#include "planner/bilevel_planner.h"
#include "planner/plan_io.h"
#include "trace/convert.h"
#include "trace/replay.h"
#include "trace/trace_io.h"

namespace memo::trace {
namespace {

model::ModelConfig SmallConfig() {
  model::ModelConfig config;
  config.name = "replay";
  config.num_layers = 3;
  config.hidden = 256;
  config.ffn_hidden = 1024;
  config.num_heads = 4;
  config.vocab = 512;
  return config;
}

model::WorkloadGenOptions SmallGen(std::uint64_t seed) {
  model::WorkloadGenOptions gen;
  gen.iterations = 4;
  gen.seed = seed;
  gen.seq_local_min = 512;
  gen.seq_local_max = 2048;
  return gen;
}

model::TraceGenOptions BaseOptions() {
  model::TraceGenOptions base;
  base.seq_local = 1024;
  return base;
}

std::vector<std::int64_t> IterationFootprints(
    const model::WorkloadTrace& workload) {
  std::vector<std::int64_t> out;
  for (const model::ModelTrace& it : workload.iterations) {
    out.push_back(it.MaxLiveBytes());
  }
  return out;
}

// ---- Generators ----

TEST(TraceGenWorkloadTest, GeneratorsAreDeterministicPerSeed) {
  const auto config = SmallConfig();
  const auto base = BaseOptions();
  using Generator = model::WorkloadTrace (*)(
      const model::ModelConfig&, const model::TraceGenOptions&,
      const model::WorkloadGenOptions&);
  for (const Generator gen :
       {&model::GenerateVariableLengthWorkload,
        &model::GenerateMoeWorkload, &model::GenerateDiurnalWorkload}) {
    const auto a = gen(config, base, SmallGen(11));
    const auto b = gen(config, base, SmallGen(11));
    const auto c = gen(config, base, SmallGen(12));
    EXPECT_EQ(IterationFootprints(a), IterationFootprints(b));
    EXPECT_NE(IterationFootprints(a), IterationFootprints(c));
    ASSERT_EQ(a.iterations.size(), 4u);
    for (const model::ModelTrace& it : a.iterations) {
      EXPECT_TRUE(it.Validate().ok());
      EXPECT_FALSE(it.requests.empty());
      EXPECT_FALSE(it.segments.empty());
    }
  }
}

TEST(TraceGenWorkloadTest, VariableLengthIterationsActuallyVary) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(3));
  const std::set<std::int64_t> distinct(
      IterationFootprints(workload).begin(),
      IterationFootprints(workload).end());
  EXPECT_GT(distinct.size(), 1u) << "all iterations drew the same length";
}

TEST(TraceGenWorkloadTest, MoeLayersAreUneven) {
  const auto workload =
      model::GenerateMoeWorkload(SmallConfig(), BaseOptions(), SmallGen(5));
  // Within one iteration, FFN-tensor bytes must differ across layers
  // (uniform layers would defeat the generator's purpose).
  const model::ModelTrace& it = workload.iterations[0];
  std::set<std::int64_t> ffn_sizes;
  for (const model::MemoryRequest& req : it.requests) {
    if (req.kind == model::MemoryRequest::Kind::kMalloc &&
        req.name.find("fc1_out") != std::string::npos) {
      ffn_sizes.insert(req.bytes);
    }
  }
  EXPECT_GT(ffn_sizes.size(), 1u);
}

TEST(TraceGenWorkloadTest, DiurnalRampRisesThenFalls) {
  model::WorkloadGenOptions gen = SmallGen(9);
  gen.iterations = 9;
  const auto workload =
      model::GenerateDiurnalWorkload(SmallConfig(), BaseOptions(), gen);
  const auto footprints = IterationFootprints(workload);
  // Triangle wave: the middle iteration is the heaviest end of the ramp.
  const std::size_t mid = footprints.size() / 2;
  EXPECT_GT(footprints[mid], footprints.front());
  EXPECT_GT(footprints[mid], footprints.back());
}

// ---- alloc::ReplayTraceInto diagnostics (satellite 1) ----

TEST(ReplayTraceIntoTest, SurfacesFailedIndexAndHistoryOnOom) {
  alloc::CachingAllocator::Options options;
  options.capacity_bytes = 64 * kMiB;
  options.record_history = true;
  alloc::CachingAllocator allocator(options);

  // 16 MiB requests land in exact-size device segments, so three of them
  // fit the 64 MiB budget and the fourth, oversized one cannot.
  std::vector<model::MemoryRequest> requests;
  for (int i = 0; i < 3; ++i) {
    model::MemoryRequest req;
    req.kind = model::MemoryRequest::Kind::kMalloc;
    req.tensor_id = i;
    req.bytes = 16 * kMiB;
    req.name = "fits";
    requests.push_back(req);
  }
  model::MemoryRequest huge;
  huge.kind = model::MemoryRequest::Kind::kMalloc;
  huge.tensor_id = 99;
  huge.bytes = 256 * kMiB;  // cannot fit
  huge.name = "too_big";
  requests.push_back(huge);

  const alloc::ReplayResult result =
      alloc::ReplayTraceInto(allocator, requests);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.failed_index, 3);
  // Stats and the MemorySample history cover the requests that did run
  // (plus the unwind frees, whose final sample shows everything released).
  EXPECT_GE(result.stats.num_allocs, 3);
  ASSERT_GE(result.history.size(), 3u);
  EXPECT_GT(result.history[2].allocated_bytes, 0);
  EXPECT_EQ(result.history.back().allocated_bytes, 0);

  // The failed replay unwound its live handles: the allocator is reusable.
  std::vector<model::MemoryRequest> retry;
  model::MemoryRequest ok_req;
  ok_req.kind = model::MemoryRequest::Kind::kMalloc;
  ok_req.tensor_id = 1;
  ok_req.bytes = 128 * kKiB;
  ok_req.name = "retry";
  retry.push_back(ok_req);
  model::MemoryRequest free_req = ok_req;
  free_req.kind = model::MemoryRequest::Kind::kFree;
  retry.push_back(free_req);
  EXPECT_TRUE(alloc::ReplayTraceInto(allocator, retry).status.ok());
}

TEST(ReplayTraceIntoTest, SuccessfulReplayReportsNoFailedIndex) {
  alloc::CachingAllocator::Options options;
  options.record_history = true;
  alloc::CachingAllocator allocator(options);
  const model::ModelTrace trace =
      model::GenerateModelTrace(SmallConfig(), BaseOptions());
  const alloc::ReplayResult result =
      alloc::ReplayTraceInto(allocator, trace.requests);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.failed_index, -1);
  EXPECT_EQ(result.history.size(), trace.requests.size());
}

// ---- Replay engine ----

TEST(ReplayWorkloadTest, SummaryJsonIsDeterministic) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(21));
  const std::string a = ReplayWorkload(workload, {}).ToJson();
  const std::string b = ReplayWorkload(workload, {}).ToJson();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"per_iteration\""), std::string::npos);
}

TEST(ReplayWorkloadTest, RecordsPlanFingerprintsPerIteration) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(22));
  const ReplaySummary summary = ReplayWorkload(workload, {});
  ASSERT_EQ(summary.per_iteration.size(), workload.iterations.size());
  for (const IterationReplay& it : summary.per_iteration) {
    EXPECT_TRUE(it.replay_ok);
    EXPECT_TRUE(it.plan_ok) << it.plan_error;
    EXPECT_NE(it.plan_fingerprint, 0u);
    EXPECT_GT(it.plan_arena_bytes, 0);
  }
  // Different sequence lengths must give different plans.
  std::set<std::uint64_t> fingerprints;
  for (const IterationReplay& it : summary.per_iteration) {
    fingerprints.insert(it.plan_fingerprint);
  }
  EXPECT_GT(fingerprints.size(), 1u);
}

TEST(ReplayWorkloadTest, NoPlannerModeSkipsPlans) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(23));
  ReplayOptions options;
  options.run_planner = false;
  const ReplaySummary summary = ReplayWorkload(workload, options);
  for (const IterationReplay& it : summary.per_iteration) {
    EXPECT_FALSE(it.plan_ok);
    EXPECT_TRUE(it.plan_error.empty());
    EXPECT_EQ(it.plan_fingerprint, 0u);
  }
}

TEST(ReplayWorkloadTest, OomIsRecordedPerIterationNotFatal) {
  ReplayOptions options;
  options.allocator.capacity_bytes = 8 * kMiB;  // far below the workload
  options.run_planner = false;
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(24));
  const ReplaySummary summary = ReplayWorkload(workload, options);
  ASSERT_EQ(summary.per_iteration.size(), workload.iterations.size());
  bool any_failed = false;
  for (const IterationReplay& it : summary.per_iteration) {
    if (!it.replay_ok) {
      any_failed = true;
      EXPECT_GE(it.failed_index, 0);
      EXPECT_FALSE(it.replay_error.empty());
    }
  }
  EXPECT_TRUE(any_failed);
}

TEST(ReplayTraceFileTest, FileReplayIsDeterministicAndFingerprinted) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(31));
  const std::string path =
      ::testing::TempDir() + "trace_replay_test.memotrc";
  ASSERT_TRUE(WriteWorkloadFile(workload, path).ok());

  auto a = ReplayTraceFile(path, {});
  auto b = ReplayTraceFile(path, {});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson(), b->ToJson());
  EXPECT_NE(a->trace_fingerprint, 0u);

  auto reader = TraceReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(a->trace_fingerprint, reader->ContentFingerprint());
  std::remove(path.c_str());
}

// ---- Diff ----

TEST(DiffTraceFilesTest, RawAndCompressedCopiesCompareEqual) {
  const auto workload = model::GenerateVariableLengthWorkload(
      SmallConfig(), BaseOptions(), SmallGen(41));
  const std::string path_a = ::testing::TempDir() + "diff_a.memotrc";
  const std::string path_b = ::testing::TempDir() + "diff_b.memotrc";
  TraceWriterOptions raw;
  raw.compress = false;
  ASSERT_TRUE(WriteWorkloadFile(workload, path_a).ok());
  ASSERT_TRUE(WriteWorkloadFile(workload, path_b, raw).ok());

  auto diff = DiffTraceFiles(path_a, path_b);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->equal);
  EXPECT_TRUE(diff->differences.empty());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(DiffTraceFilesTest, DifferentSeedsCompareUnequal) {
  const std::string path_a = ::testing::TempDir() + "diff_c.memotrc";
  const std::string path_b = ::testing::TempDir() + "diff_d.memotrc";
  ASSERT_TRUE(WriteWorkloadFile(
                  model::GenerateVariableLengthWorkload(
                      SmallConfig(), BaseOptions(), SmallGen(42)),
                  path_a)
                  .ok());
  ASSERT_TRUE(WriteWorkloadFile(
                  model::GenerateVariableLengthWorkload(
                      SmallConfig(), BaseOptions(), SmallGen(43)),
                  path_b)
                  .ok());
  auto diff = DiffTraceFiles(path_a, path_b);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->equal);
  EXPECT_FALSE(diff->differences.empty());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---- Plan fingerprint ----

TEST(PlanFingerprintTest, StableForEqualPlansSensitiveToChanges) {
  const model::ModelTrace trace =
      model::GenerateModelTrace(SmallConfig(), BaseOptions());
  auto plan_a = planner::PlanMemory(trace);
  auto plan_b = planner::PlanMemory(trace);
  ASSERT_TRUE(plan_a.ok()) << plan_a.status().ToString();
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(planner::PlanFingerprint(plan_a.value()),
            planner::PlanFingerprint(plan_b.value()));

  model::TraceGenOptions bigger = BaseOptions();
  bigger.seq_local = 2048;
  auto plan_c =
      planner::PlanMemory(model::GenerateModelTrace(SmallConfig(), bigger));
  ASSERT_TRUE(plan_c.ok());
  EXPECT_NE(planner::PlanFingerprint(plan_a.value()),
            planner::PlanFingerprint(plan_c.value()));
}

}  // namespace
}  // namespace memo::trace
