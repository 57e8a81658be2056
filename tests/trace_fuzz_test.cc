// Adversarial-input tests for the binary trace reader and LZ decoder: a
// truncated, bit-flipped or structurally corrupted file must come back as a
// Status — never a crash, hang, or read past the buffer. Runs in the asan,
// tsan and ubsan legs (tools/sanitizer_check.cmake) so "no over-read" and
// the offset arithmetic are checked by the sanitizers, not just by
// surviving.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "model/model_config.h"
#include "model/trace_gen.h"
#include "trace/convert.h"
#include "trace/format.h"
#include "trace/trace_io.h"

namespace memo::trace {
namespace {

model::WorkloadTrace SmallWorkload() {
  model::ModelConfig config;
  config.name = "fuzz";
  config.num_layers = 2;
  config.hidden = 256;
  config.ffn_hidden = 1024;
  config.num_heads = 4;
  config.vocab = 512;
  model::TraceGenOptions base;
  base.seq_local = 1024;
  model::WorkloadGenOptions gen;
  gen.iterations = 2;
  gen.seed = 7;
  gen.seq_local_min = 512;
  gen.seq_local_max = 1024;
  return model::GenerateVariableLengthWorkload(config, base, gen);
}

std::string EncodeSmallWorkload(bool compress) {
  TraceWriterOptions options;
  options.compress = compress;
  options.chunk_records = 64;  // several chunks, so chunk framing is hit
  return EncodeWorkload(SmallWorkload(), options);
}

/// Full adversarial read of one byte string: open (which decodes every
/// record), fingerprint, convert to workload form. Every step may fail with
/// a Status; none may crash. Returns the first failure, if any.
Status ExerciseBuffer(const std::string& data) {
  auto reader = TraceReader::OpenBuffer(data);
  if (!reader.ok()) return reader.status();
  (void)reader->ContentFingerprint();
  return ReadWorkload(*reader).status();
}

/// Rewrites the footer checksum so structure-level corruptions are not
/// masked by the checksum check (the point is to reach the deeper
/// validation, not to test the checksum twice).
void PatchChecksum(std::string* data) {
  ASSERT_GE(data->size(), kChecksumTailBytes);
  const std::size_t pos = data->size() - kChecksumTailBytes;
  const std::uint64_t sum = Fnv1a64(data->data(), pos);
  for (int i = 0; i < 8; ++i) {
    (*data)[pos + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
}

void PokeU32(std::string* data, std::size_t offset, std::uint32_t v) {
  ASSERT_LE(offset + 4, data->size());
  for (int i = 0; i < 4; ++i) {
    (*data)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PokeU64(std::string* data, std::size_t offset, std::uint64_t v) {
  ASSERT_LE(offset + 8, data->size());
  for (int i = 0; i < 8; ++i) {
    (*data)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint64_t PeekLe(const std::string& data, std::size_t offset,
                     int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(data[offset + i]);
  }
  return v;
}

std::uint64_t PeekU64(const std::string& data, std::size_t offset) {
  return PeekLe(data, offset, 8);
}

TEST(TraceFuzzTest, TruncationAtEveryPrefixLengthIsAStatus) {
  for (const bool compress : {true, false}) {
    const std::string full = EncodeSmallWorkload(compress);
    // Every prefix short enough to matter, then a sample of the rest so
    // the test stays fast on the larger compressed-false encoding.
    for (std::size_t len = 0; len < full.size();
         len += (len < 256 ? 1 : 37)) {
      ExerciseBuffer(full.substr(0, len));
      // Opening a truncated file must fail outright: the footer (and with
      // it the checksum) is gone or misaligned.
      auto reader = TraceReader::OpenBuffer(full.substr(0, len));
      EXPECT_FALSE(reader.ok()) << "prefix of " << len << " bytes opened";
    }
  }
}

TEST(TraceFuzzTest, EverySingleByteFlipIsDetected) {
  const std::string full = EncodeSmallWorkload(true);
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    std::string corrupt = full;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    // A flip in covered bytes breaks the checksum; one in the checksum
    // tail breaks the checksum field or the end magic. Both fail the open.
    EXPECT_FALSE(TraceReader::OpenBuffer(corrupt).ok())
        << "flip at byte " << pos << " went unnoticed";
  }
}

TEST(TraceFuzzTest, ZeroRecordChunkIsRejected) {
  std::string data = EncodeSmallWorkload(true);
  // First chunk header sits right after the file header.
  PokeU32(&data, kHeaderBytes, 0);
  PatchChecksum(&data);
  EXPECT_FALSE(TraceReader::OpenBuffer(data).ok());
}

TEST(TraceFuzzTest, OversizedChunkRecordCountIsRejected) {
  std::string data = EncodeSmallWorkload(true);
  PokeU32(&data, kHeaderBytes, 0x7fffffff);
  PatchChecksum(&data);
  EXPECT_FALSE(TraceReader::OpenBuffer(data).ok());
}

TEST(TraceFuzzTest, StoredBytesLargerThanRawIsRejected) {
  std::string data = EncodeSmallWorkload(true);
  // stored_bytes field of the first chunk: header + records(4) + raw(4).
  const std::size_t raw_off = kHeaderBytes + 4;
  const std::size_t stored_off = kHeaderBytes + 8;
  const auto raw = static_cast<std::uint32_t>(PeekLe(data, raw_off, 4));
  PokeU32(&data, stored_off, raw + 1000);
  PatchChecksum(&data);
  EXPECT_FALSE(TraceReader::OpenBuffer(data).ok());
}

TEST(TraceFuzzTest, UnknownChunkMethodIsRejected) {
  std::string data = EncodeSmallWorkload(true);
  const std::size_t method_off = kHeaderBytes + 12;
  data[method_off] = 7;
  PatchChecksum(&data);
  EXPECT_FALSE(TraceReader::OpenBuffer(data).ok());
}

TEST(TraceFuzzTest, CorruptedDictionaryOffsetsAreRejected) {
  const std::string base = EncodeSmallWorkload(true);
  const std::size_t footer = base.size() - kFooterBytes;
  for (const std::uint64_t bad_dict :
       {std::uint64_t{0}, std::uint64_t{1}, PeekU64(base, footer) + 9999,
        static_cast<std::uint64_t>(base.size()),
        ~std::uint64_t{0}}) {
    std::string data = base;
    PokeU64(&data, footer, bad_dict);
    PatchChecksum(&data);
    ExerciseBuffer(data);
    auto reader = TraceReader::OpenBuffer(data);
    EXPECT_FALSE(reader.ok()) << "dict_offset " << bad_dict << " accepted";
  }
}

TEST(TraceFuzzTest, DictionaryLengthOverrunIsRejected) {
  const std::string base = EncodeSmallWorkload(true);
  const std::size_t footer = base.size() - kFooterBytes;
  const std::uint64_t dict_offset = PeekU64(base, footer);
  // The first string's length field (after the u32 count) overruns the
  // section, and so does a count of 2^32 - 1 strings: checked against the
  // section's bytes before the string table is allocated.
  const struct {
    std::uint64_t offset;
    std::uint32_t value;
  } pokes[] = {{dict_offset + 4, 0x40000000}, {dict_offset, 0xffffffff}};
  for (const auto& poke : pokes) {
    std::string data = base;
    PokeU32(&data, poke.offset, poke.value);
    PatchChecksum(&data);
    const Status status = ExerciseBuffer(data);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "u32 " << poke.value << " at " << poke.offset << ": "
        << status.ToString();
  }
}

TEST(TraceFuzzTest, RecordCountMismatchIsRejected) {
  const std::string base = EncodeSmallWorkload(true);
  const std::size_t footer = base.size() - kFooterBytes;
  // One record more than the chunks carry, and 2^40 of them: the footer's
  // count must match the decoded records before anything is sized by it.
  for (const std::uint64_t count :
       {PeekU64(base, footer + 16) + 1, std::uint64_t{1} << 40}) {
    std::string data = base;
    PokeU64(&data, footer + 16, count);
    PatchChecksum(&data);
    const Status status = ExerciseBuffer(data);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "record_count " << count << ": " << status.ToString();
  }
}

TEST(TraceFuzzTest, BadChecksumIsRejectedAtOpen) {
  std::string data = EncodeSmallWorkload(true);
  const std::size_t pos = data.size() - kChecksumTailBytes;
  data[pos] = static_cast<char>(data[pos] ^ 0xff);
  auto reader = TraceReader::OpenBuffer(data);
  EXPECT_FALSE(reader.ok());
}

TEST(TraceFuzzTest, RandomMutationsWithRepairedChecksumNeverCrash) {
  // With the checksum re-patched, corruption reaches the structural
  // validators. Whatever they decide, every byte access must stay in
  // bounds (asan is the judge).
  const std::string base = EncodeSmallWorkload(true);
  Rng rng(0x7ace5eed);
  for (int round = 0; round < 400; ++round) {
    std::string data = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(8));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.NextBounded(data.size());
      data[pos] = static_cast<char>(rng.NextBounded(256));
    }
    PatchChecksum(&data);
    ExerciseBuffer(data);
  }
}

TEST(TraceFuzzTest, RandomTruncationsAndExtensionsNeverCrash) {
  const std::string base = EncodeSmallWorkload(false);
  Rng rng(0xcafe);
  for (int round = 0; round < 200; ++round) {
    std::string data = base.substr(0, rng.NextBounded(base.size() + 1));
    if (rng.NextBounded(2) == 0) {
      data.append(rng.NextBounded(64), static_cast<char>('x'));
    }
    ExerciseBuffer(data);
  }
}

TEST(TraceFuzzTest, NonzeroHeaderKindIsRejectedAtOpen) {
  // The header's u16 kind (offset 10) is always 0. Kind 1 (the simulator
  // timelines older files may hold) or any other value must fail on the
  // kind itself, even with a valid checksum, not on whatever the aux
  // section happens to decode to.
  for (const std::uint16_t kind : {std::uint16_t{1}, std::uint16_t{0xffff}}) {
    std::string data = EncodeSmallWorkload(true);
    data[10] = static_cast<char>(kind & 0xff);
    data[11] = static_cast<char>(kind >> 8);
    PatchChecksum(&data);
    auto reader = TraceReader::OpenBuffer(data);
    ASSERT_FALSE(reader.ok()) << "kind " << kind << " opened";
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("kind"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(TraceFuzzTest, LiveBytesPastTwoToTheSixtySecondAreRejected) {
  // Two 2^62-byte mallocs hold 2^63 bytes live, one past int64: the
  // replay's live-byte sums would wrap. One such malloc is at the bound.
  const auto encode = [](int mallocs) {
    model::ModelTrace trace;
    for (int i = 0; i < mallocs; ++i) {
      model::MemoryRequest r;
      r.tensor_id = i;
      r.bytes = model::kMaxLiveBytes;
      r.name = "t" + std::to_string(i);
      trace.requests.push_back(r);
    }
    model::WorkloadTrace workload;
    workload.iterations.push_back(trace);
    return EncodeWorkload(workload);
  };
  const std::string one = encode(1);
  auto at_bound = TraceReader::OpenBuffer(one);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_TRUE(ReadWorkload(*at_bound).ok());

  const std::string two = encode(2);
  auto past_bound = TraceReader::OpenBuffer(two);
  ASSERT_TRUE(past_bound.ok()) << past_bound.status();
  const auto workload = ReadWorkload(*past_bound);
  EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument)
      << workload.status();
}

TEST(TraceFuzzTest, AFreeOfATensorNeverAllocatedIsRejected) {
  // The first record turned from a malloc into a free passes the checksum
  // and every structural check, and the replay would then free a tensor
  // it never allocated: the reader refuses the pairing instead.
  std::string data = EncodeSmallWorkload(false);
  const std::size_t op = kHeaderBytes + kChunkHeaderBytes;
  ASSERT_EQ(data[op], static_cast<char>(kOpMalloc));
  data[op] = static_cast<char>(kOpFree);
  PatchChecksum(&data);
  auto reader = TraceReader::OpenBuffer(data);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto workload = ReadWorkload(*reader);
  EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument)
      << workload.status();
  EXPECT_NE(workload.status().message().find("free of dead tensor"),
            std::string::npos)
      << workload.status();
}

TEST(TraceFuzzTest, LzDecompressRejectsGarbageWithoutCrashing) {
  Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = rng.NextBounded(512);
    std::string garbage;
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.NextBounded(256));
    }
    std::string out;
    // Any verdict is fine; on success the output must honor the size.
    if (LzDecompress(garbage, 256, &out).ok()) {
      EXPECT_EQ(out.size(), 256u);
    }
  }
}

TEST(TraceFuzzTest, LzDecompressRejectsTruncatedValidStreams) {
  std::string input;
  for (int i = 0; i < 500; ++i) input += "pattern" + std::to_string(i % 9);
  const std::string compressed = LzCompress(input);
  for (std::size_t len = 0; len < compressed.size(); ++len) {
    std::string out;
    // Either a clean error or (for a prefix that happens to parse) a
    // wrong-size result — which the trace reader treats as corruption.
    const Status status =
        LzDecompress(compressed.substr(0, len), input.size(), &out);
    if (status.ok()) {
      EXPECT_NE(out, input) << "truncated stream decoded to the original";
    }
  }
}

}  // namespace
}  // namespace memo::trace
