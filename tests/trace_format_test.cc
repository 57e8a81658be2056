// Round-trip and golden-fixture tests for the compact binary trace format:
// writer -> reader must be lossless for both trace kinds, with and without
// chunk compression; re-encoding a decoded trace must reproduce the file
// bit-for-bit (canonical encoding); checked-in fixtures pin the on-disk
// bytes so any accidental format change fails loudly; and the compact form
// must stay >= 5x smaller than the verbose JSON equivalent.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/units.h"
#include "model/model_config.h"
#include "model/trace_gen.h"
#include "trace/convert.h"
#include "trace/trace_io.h"

namespace memo::trace {
namespace {

model::ModelConfig SmallConfig() {
  model::ModelConfig config;
  config.name = "fixture";
  config.num_layers = 2;
  config.hidden = 256;
  config.ffn_hidden = 1024;
  config.num_heads = 4;
  config.vocab = 512;
  return config;
}

/// The deterministic workload behind the checked-in alloc fixtures: small
/// enough to keep fixtures a few KiB, seeded so every host generates the
/// same bytes.
model::WorkloadTrace FixtureWorkload() {
  model::TraceGenOptions base;
  base.seq_local = 1024;
  model::WorkloadGenOptions gen;
  gen.iterations = 3;
  gen.seed = 42;
  gen.seq_local_min = 512;
  gen.seq_local_max = 2048;
  return model::GenerateVariableLengthWorkload(SmallConfig(), base, gen);
}

/// The deterministic sim timeline behind the sim fixtures.
SimTimeline FixtureTimeline() {
  SimTimeline timeline;
  timeline.stream_names = {"compute", "offload", "fetch"};
  for (int i = 0; i < 200; ++i) {
    sim::OpRecord op;
    op.stream = i % 3;
    // Labels shaped like real op names: long, repetitive, drawn from a
    // small set — the dictionary stores each once, JSON repeats them all.
    op.label = (i % 3 == 0   ? "compute:flash_attention_fwd_layer_"
                : i % 3 == 1 ? "offload:d2h_skeletal_activation_chunk_"
                             : "fetch:h2d_prefetch_activation_chunk_") +
               std::to_string(i % 7);
    op.start_s = 0.001 * i;
    op.end_s = 0.001 * i + 0.0005;
    op.stall_s = (i % 5 == 0) ? 0.0001 : 0.0;
    timeline.ops.push_back(op);
  }
  return timeline;
}

std::string EncodeWorkload(const model::WorkloadTrace& workload,
                           const TraceWriterOptions& options) {
  auto writer = TraceWriter::CreateInMemory(TraceKind::kAllocRequests,
                                            options);
  EXPECT_TRUE(WriteWorkload(workload, writer.get()).ok());
  EXPECT_TRUE(writer->Finish().ok());
  return writer->buffer();
}

std::string EncodeTimeline(const SimTimeline& timeline,
                           const TraceWriterOptions& options) {
  auto writer = TraceWriter::CreateInMemory(TraceKind::kSimTimeline,
                                            options);
  EXPECT_TRUE(WriteSimTimeline(timeline, writer.get()).ok());
  EXPECT_TRUE(writer->Finish().ok());
  return writer->buffer();
}

void ExpectWorkloadsEqual(const model::WorkloadTrace& a,
                          const model::WorkloadTrace& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const model::ModelTrace& x = a.iterations[i];
    const model::ModelTrace& y = b.iterations[i];
    ASSERT_EQ(x.requests.size(), y.requests.size()) << "iteration " << i;
    for (std::size_t r = 0; r < x.requests.size(); ++r) {
      EXPECT_EQ(x.requests[r].kind, y.requests[r].kind);
      EXPECT_EQ(x.requests[r].tensor_id, y.requests[r].tensor_id);
      EXPECT_EQ(x.requests[r].bytes, y.requests[r].bytes);
      EXPECT_EQ(x.requests[r].skeletal, y.requests[r].skeletal);
      EXPECT_EQ(x.requests[r].name, y.requests[r].name);
    }
    ASSERT_EQ(x.segments.size(), y.segments.size()) << "iteration " << i;
    for (std::size_t s = 0; s < x.segments.size(); ++s) {
      EXPECT_EQ(x.segments[s].name, y.segments[s].name);
      EXPECT_EQ(x.segments[s].begin, y.segments[s].begin);
      EXPECT_EQ(x.segments[s].end, y.segments[s].end);
      EXPECT_EQ(x.segments[s].layer, y.segments[s].layer);
    }
  }
}

TEST(TraceFormatTest, AllocRoundTripCompressedAndRaw) {
  const model::WorkloadTrace workload = FixtureWorkload();
  for (const bool compress : {true, false}) {
    TraceWriterOptions options;
    options.compress = compress;
    const std::string encoded = EncodeWorkload(workload, options);
    auto reader = TraceReader::OpenBuffer(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->kind(), TraceKind::kAllocRequests);
    auto decoded = ReadWorkload(reader->get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectWorkloadsEqual(workload, decoded.value());
    for (const model::ModelTrace& it : decoded->iterations) {
      EXPECT_TRUE(it.Validate().ok());
    }
  }
}

TEST(TraceFormatTest, SimRoundTripCompressedAndRaw) {
  const SimTimeline timeline = FixtureTimeline();
  for (const bool compress : {true, false}) {
    TraceWriterOptions options;
    options.compress = compress;
    const std::string encoded = EncodeTimeline(timeline, options);
    auto reader = TraceReader::OpenBuffer(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto decoded = ReadSimTimeline(reader->get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->stream_names, timeline.stream_names);
    ASSERT_EQ(decoded->ops.size(), timeline.ops.size());
    for (std::size_t i = 0; i < timeline.ops.size(); ++i) {
      EXPECT_EQ(decoded->ops[i].stream, timeline.ops[i].stream);
      EXPECT_EQ(decoded->ops[i].label, timeline.ops[i].label);
      // Doubles travel as bit patterns: exact equality is the contract.
      EXPECT_EQ(decoded->ops[i].start_s, timeline.ops[i].start_s);
      EXPECT_EQ(decoded->ops[i].end_s, timeline.ops[i].end_s);
      EXPECT_EQ(decoded->ops[i].stall_s, timeline.ops[i].stall_s);
    }
  }
}

TEST(TraceFormatTest, ReEncodingADecodedTraceIsBitExact) {
  for (const bool compress : {true, false}) {
    TraceWriterOptions options;
    options.compress = compress;
    const std::string first = EncodeWorkload(FixtureWorkload(), options);
    auto reader = TraceReader::OpenBuffer(first);
    ASSERT_TRUE(reader.ok());
    auto decoded = ReadWorkload(reader->get());
    ASSERT_TRUE(decoded.ok());
    const std::string second = EncodeWorkload(decoded.value(), options);
    EXPECT_EQ(first, second) << "canonical encoding violated (compress="
                             << compress << ")";
  }
}

TEST(TraceFormatTest, OddChunkSizesRoundTrip) {
  const model::WorkloadTrace workload = FixtureWorkload();
  for (const int chunk_records : {1, 7, 100000}) {
    TraceWriterOptions options;
    options.chunk_records = chunk_records;
    const std::string encoded = EncodeWorkload(workload, options);
    auto reader = TraceReader::OpenBuffer(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto decoded = ReadWorkload(reader->get());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectWorkloadsEqual(workload, decoded.value());
  }
}

TEST(TraceFormatTest, ContentFingerprintIgnoresCompressionAndChunking) {
  const model::WorkloadTrace workload = FixtureWorkload();
  std::vector<std::uint64_t> fingerprints;
  for (const int chunk_records : {64, 4096}) {
    for (const bool compress : {true, false}) {
      TraceWriterOptions options;
      options.compress = compress;
      options.chunk_records = chunk_records;
      auto reader =
          TraceReader::OpenBuffer(EncodeWorkload(workload, options));
      ASSERT_TRUE(reader.ok());
      auto fp = (*reader)->ContentFingerprint();
      ASSERT_TRUE(fp.ok());
      fingerprints.push_back(fp.value());
    }
  }
  for (const std::uint64_t fp : fingerprints) {
    EXPECT_EQ(fp, fingerprints[0]);
  }

  // A one-request change must move the fingerprint.
  model::WorkloadTrace changed = FixtureWorkload();
  changed.iterations[0].requests[0].bytes += 512;
  auto reader = TraceReader::OpenBuffer(EncodeWorkload(changed, {}));
  ASSERT_TRUE(reader.ok());
  auto fp = (*reader)->ContentFingerprint();
  ASSERT_TRUE(fp.ok());
  EXPECT_NE(fp.value(), fingerprints[0]);
}

TEST(TraceFormatTest, CompressedBinaryIsAtLeastFiveTimesSmallerThanJson) {
  const model::WorkloadTrace workload = FixtureWorkload();
  const std::string binary = EncodeWorkload(workload, {});
  const std::string json = WorkloadToJson(workload);
  EXPECT_GE(json.size(), 5 * binary.size())
      << "binary " << binary.size() << " bytes vs JSON " << json.size();

  const SimTimeline timeline = FixtureTimeline();
  const std::string sim_binary = EncodeTimeline(timeline, {});
  const std::string chrome = SimTimelineToChromeJson(timeline);
  EXPECT_GE(chrome.size(), 5 * sim_binary.size())
      << "binary " << sim_binary.size() << " bytes vs Chrome JSON "
      << chrome.size();
}

TEST(TraceFormatTest, FileAndBufferPathsAgree) {
  const model::WorkloadTrace workload = FixtureWorkload();
  const std::string path =
      ::testing::TempDir() + "trace_format_file_test.memotrc";
  ASSERT_TRUE(WriteWorkloadFile(workload, path).ok());
  auto from_file = ReadWorkloadFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ExpectWorkloadsEqual(workload, from_file.value());
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RecorderTimelineRoundTripsMirroredSimEvents) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  recorder.NameSyntheticLane(1000, "sim:compute");
  recorder.NameSyntheticLane(1001, "sim:offload");
  recorder.Complete("gemm", "sim", 1000, 10.0, 5.0, "stall_us", 2);
  recorder.Complete("d2h", "sim", 1001, 12.0, 3.0);
  recorder.Disable();

  const SimTimeline timeline = RecorderTimeline(recorder);
  recorder.Clear();
  ASSERT_EQ(timeline.stream_names.size(), 2u);
  EXPECT_EQ(timeline.stream_names[0], "sim:compute");
  ASSERT_EQ(timeline.ops.size(), 2u);
  EXPECT_EQ(timeline.ops[0].label, "gemm");
  EXPECT_DOUBLE_EQ(timeline.ops[0].start_s, 10.0 * 1e-6);

  const std::string encoded = EncodeTimeline(timeline, {});
  auto reader = TraceReader::OpenBuffer(encoded);
  ASSERT_TRUE(reader.ok());
  auto decoded = ReadSimTimeline(reader->get());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ops.size(), 2u);
}

// ---- LZ codec properties ----

TEST(TraceCompressTest, RoundTripsRepetitiveAndRandomData) {
  std::string repetitive;
  for (int i = 0; i < 1000; ++i) {
    repetitive += "abcdefgh";
    repetitive += static_cast<char>(i & 0xff);
  }
  std::string random_bytes;
  std::uint64_t state = 12345;
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    random_bytes += static_cast<char>(state >> 56);
  }
  for (const std::string& input :
       {std::string(), std::string("x"), std::string(10000, 'A'),
        repetitive, random_bytes}) {
    const std::string compressed = LzCompress(input);
    std::string decompressed;
    ASSERT_TRUE(
        LzDecompress(compressed, input.size(), &decompressed).ok());
    EXPECT_EQ(decompressed, input);
  }
}

TEST(TraceCompressTest, CompressesFixedWidthRecordsWell) {
  // Encoded alloc records are the target payload: expect real shrinkage.
  const std::string encoded = EncodeWorkload(FixtureWorkload(), {});
  TraceWriterOptions raw;
  raw.compress = false;
  const std::string raw_encoded = EncodeWorkload(FixtureWorkload(), raw);
  EXPECT_LT(encoded.size(), raw_encoded.size() * 2 / 3);
}

// ---- Golden fixtures ----
//
// Checked-in files pin the exact on-disk bytes of format version 1. If an
// intentional format change breaks these, bump kFormatVersion, regenerate
// with MEMO_REGEN_GOLDEN=1, and document the change in DESIGN.md §13.

struct GoldenFixture {
  const char* file;
  TraceKind kind;
  bool compress;
};

const GoldenFixture kFixtures[] = {
    {"alloc_small.memotrc", TraceKind::kAllocRequests, true},
    {"alloc_small_raw.memotrc", TraceKind::kAllocRequests, false},
    {"sim_small.memotrc", TraceKind::kSimTimeline, true},
    {"sim_small_raw.memotrc", TraceKind::kSimTimeline, false},
};

std::string FixturePath(const char* file) {
  return std::string(MEMO_TEST_DATA_DIR) + "/" + file;
}

std::string EncodeFixture(const GoldenFixture& fixture) {
  TraceWriterOptions options;
  options.compress = fixture.compress;
  return fixture.kind == TraceKind::kAllocRequests
             ? EncodeWorkload(FixtureWorkload(), options)
             : EncodeTimeline(FixtureTimeline(), options);
}

std::string ReadFileBytes(const std::string& path) {
  std::string content;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

TEST(TraceGoldenTest, FixturesMatchFreshEncodingBitForBit) {
  if (std::getenv("MEMO_REGEN_GOLDEN") != nullptr) {
    for (const GoldenFixture& fixture : kFixtures) {
      const std::string bytes = EncodeFixture(fixture);
      std::FILE* f = std::fopen(FixturePath(fixture.file).c_str(), "wb");
      ASSERT_NE(f, nullptr) << FixturePath(fixture.file);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                bytes.size());
      std::fclose(f);
    }
    GTEST_SKIP() << "regenerated golden fixtures";
  }
  for (const GoldenFixture& fixture : kFixtures) {
    const std::string on_disk = ReadFileBytes(FixturePath(fixture.file));
    ASSERT_FALSE(on_disk.empty())
        << "missing fixture " << FixturePath(fixture.file)
        << " (regenerate with MEMO_REGEN_GOLDEN=1)";
    EXPECT_EQ(on_disk, EncodeFixture(fixture))
        << fixture.file << ": on-disk bytes diverge from a fresh encode";
  }
}

TEST(TraceGoldenTest, FixturesDecodeAndFingerprintConsistently) {
  std::uint64_t alloc_fp = 0;
  std::uint64_t sim_fp = 0;
  for (const GoldenFixture& fixture : kFixtures) {
    const std::string path = FixturePath(fixture.file);
    if (ReadFileBytes(path).empty()) {
      GTEST_SKIP() << "fixtures not generated yet";
    }
    auto reader = TraceReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->kind(), fixture.kind);
    auto fp = (*reader)->ContentFingerprint();
    ASSERT_TRUE(fp.ok());
    std::uint64_t& expected =
        fixture.kind == TraceKind::kAllocRequests ? alloc_fp : sim_fp;
    if (expected == 0) {
      expected = fp.value();
    } else {
      // Compressed and raw fixture pairs hold identical content.
      EXPECT_EQ(fp.value(), expected) << fixture.file;
    }
  }
}

}  // namespace
}  // namespace memo::trace
