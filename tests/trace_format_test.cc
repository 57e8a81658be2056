// Round-trip and golden-fixture tests for the compact binary trace format:
// writer -> reader must be lossless, with and without chunk compression;
// re-encoding a decoded trace must reproduce the file bit-for-bit
// (canonical encoding); checked-in fixtures pin the on-disk bytes so any
// accidental format change fails loudly; and the compact form must stay
// >= 5x smaller than the verbose JSON equivalent.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/file_io.h"
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
    auto decoded = ReadWorkload(*reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectWorkloadsEqual(workload, decoded.value());
    for (const model::ModelTrace& it : decoded->iterations) {
      EXPECT_TRUE(it.Validate().ok());
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
    auto decoded = ReadWorkload(*reader);
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
    auto decoded = ReadWorkload(*reader);
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
      fingerprints.push_back(reader->ContentFingerprint());
    }
  }
  for (const std::uint64_t fp : fingerprints) {
    EXPECT_EQ(fp, fingerprints[0]);
  }

  // A one-request change must move the fingerprint.
  model::WorkloadTrace changed = FixtureWorkload();
  changed.iterations[0].requests[0].bytes += 512;
  auto reader = TraceReader::OpenBuffer(EncodeWorkload(changed));
  ASSERT_TRUE(reader.ok());
  EXPECT_NE(reader->ContentFingerprint(), fingerprints[0]);
}

TEST(TraceFormatTest, CompressedBinaryIsAtLeastFiveTimesSmallerThanJson) {
  const model::WorkloadTrace workload = FixtureWorkload();
  const std::string binary = EncodeWorkload(workload, {});
  const std::string json = WorkloadToJson(workload);
  EXPECT_GE(json.size(), 5 * binary.size())
      << "binary " << binary.size() << " bytes vs JSON " << json.size();
}

TEST(TraceFormatTest, JsonEscapesControlBytesInDictionaryNames) {
  // Dictionary names are free-form bytes. A raw control byte in the
  // converted JSON makes the file invalid (strict parsers reject it), so
  // every one must come out escaped. Checked on bytes, because the tests'
  // own JSON parser accepts raw control bytes.
  model::WorkloadTrace workload = FixtureWorkload();
  workload.iterations[0].requests[0].name = "q\tproj\x01";
  workload.iterations[0].segments[0].name = "layer\nfwd\r";
  const std::string path =
      ::testing::TempDir() + "trace_format_control_names.memotrc";
  ASSERT_TRUE(WriteWorkloadFile(workload, path).ok());
  auto decoded = ReadWorkloadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectWorkloadsEqual(workload, decoded.value());

  const std::string json = WorkloadToJson(decoded.value());
  std::size_t raw_control_bytes = 0;
  for (const char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) ++raw_control_bytes;
  }
  EXPECT_EQ(raw_control_bytes, 0u);
  EXPECT_NE(json.find("\"name\":\"q\\tproj\\u0001\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"layer\\nfwd\\r\""), std::string::npos);
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
  bool compress;
};

const GoldenFixture kFixtures[] = {
    {"alloc_small.memotrc", true},
    {"alloc_small_raw.memotrc", false},
};

std::string FixturePath(const char* file) {
  return std::string(MEMO_TEST_DATA_DIR) + "/" + file;
}

std::string EncodeFixture(const GoldenFixture& fixture) {
  TraceWriterOptions options;
  options.compress = fixture.compress;
  return EncodeWorkload(FixtureWorkload(), options);
}

std::string ReadFileBytes(const std::string& path) {
  auto content = ReadWholeFile(path, "fixture");
  return content.ok() ? *content : std::string();
}

TEST(TraceGoldenTest, FixturesMatchFreshEncodingBitForBit) {
  if (std::getenv("MEMO_REGEN_GOLDEN") != nullptr) {
    for (const GoldenFixture& fixture : kFixtures) {
      const Status written =
          WriteWholeFile(FixturePath(fixture.file), EncodeFixture(fixture),
                         "fixture", WriteMode::kInPlace);
      ASSERT_TRUE(written.ok()) << written.ToString();
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
  std::uint64_t expected = 0;
  for (const GoldenFixture& fixture : kFixtures) {
    const std::string path = FixturePath(fixture.file);
    if (ReadFileBytes(path).empty()) {
      GTEST_SKIP() << "fixtures not generated yet";
    }
    auto reader = TraceReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const std::uint64_t fp = reader->ContentFingerprint();
    if (expected == 0) {
      expected = fp;
    } else {
      // Compressed and raw fixture pairs hold identical content.
      EXPECT_EQ(fp, expected) << fixture.file;
    }
  }
}

}  // namespace
}  // namespace memo::trace
