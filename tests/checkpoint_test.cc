// Checkpoint container tests: serialization round trip, the checksum
// catching any flipped byte, atomicity of the write path, and the
// newest-valid-wins fallback LoadLatestValidCheckpoint implements. These
// run against the raw file format; the end-to-end kill-and-resume legs
// live in fault_tolerance_test.cc.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "train/checkpoint.h"

namespace memo::train {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& f : ListCheckpoints(dir)) std::remove(f.c_str());
  return dir;
}

Tensor PatternTensor(std::int64_t rows, std::int64_t cols, float base) {
  Tensor t(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      t.at(r, c) = base + static_cast<float>(r * cols + c) * 0.25f;
    }
  }
  return t;
}

CheckpointState SampleState(std::int64_t step, std::uint64_t fingerprint) {
  CheckpointState state;
  state.config_fingerprint = fingerprint;
  state.step = step;
  state.data_rng_state = 0xDEADBEEFCAFEULL + static_cast<std::uint64_t>(step);
  state.last_token = 17;
  state.adam_step = step;
  state.degraded = (step % 2 == 1);
  for (std::int64_t i = 0; i < step; ++i) {
    state.losses.push_back(4.0 - 0.125 * static_cast<double>(i));
  }
  state.params.push_back(PatternTensor(3, 4, 0.5f));
  state.params.push_back(PatternTensor(1, 7, -2.0f));
  state.adam_m.push_back(PatternTensor(3, 4, 0.01f));
  state.adam_m.push_back(PatternTensor(1, 7, 0.02f));
  state.adam_v.push_back(PatternTensor(3, 4, 0.03f));
  state.adam_v.push_back(PatternTensor(1, 7, 0.04f));
  return state;
}

void ExpectTensorsEqual(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows(), b[i].rows());
    ASSERT_EQ(a[i].cols(), b[i].cols());
    for (std::int64_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i].data()[k], b[i].data()[k]) << "tensor " << i
                                                << " element " << k;
    }
  }
}

TEST(CheckpointTest, FileNamesSortNumericallyAndLexicographically) {
  EXPECT_EQ(CheckpointFileName(0), "ckpt_000000.memockpt");
  EXPECT_EQ(CheckpointFileName(40), "ckpt_000040.memockpt");
  EXPECT_LT(CheckpointFileName(99), CheckpointFileName(100));
  EXPECT_LT(CheckpointFileName(9), CheckpointFileName(10));
}

TEST(CheckpointTest, SaveLoadRoundTripIsBitExact) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  const CheckpointState state = SampleState(6, 0xABCDULL);
  ASSERT_TRUE(SaveCheckpoint(dir, state).ok());

  auto loaded = LoadCheckpoint(dir + "/" + CheckpointFileName(6));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config_fingerprint, state.config_fingerprint);
  EXPECT_EQ(loaded->step, state.step);
  EXPECT_EQ(loaded->data_rng_state, state.data_rng_state);
  EXPECT_EQ(loaded->last_token, state.last_token);
  EXPECT_EQ(loaded->adam_step, state.adam_step);
  EXPECT_EQ(loaded->degraded, state.degraded);
  EXPECT_EQ(loaded->losses, state.losses);
  ExpectTensorsEqual(loaded->params, state.params);
  ExpectTensorsEqual(loaded->adam_m, state.adam_m);
  ExpectTensorsEqual(loaded->adam_v, state.adam_v);
}

TEST(CheckpointTest, ListCheckpointsSortsByStep) {
  const std::string dir = FreshDir("ckpt_listing");
  for (std::int64_t step : {40, 2, 11}) {
    ASSERT_TRUE(SaveCheckpoint(dir, SampleState(step, 1)).ok());
  }
  const std::vector<std::string> files = ListCheckpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_NE(files[0].find(CheckpointFileName(2)), std::string::npos);
  EXPECT_NE(files[1].find(CheckpointFileName(11)), std::string::npos);
  EXPECT_NE(files[2].find(CheckpointFileName(40)), std::string::npos);

  // A missing directory is an empty listing, not an error.
  EXPECT_TRUE(ListCheckpoints(dir + "/does_not_exist").empty());
}

TEST(CheckpointTest, AnyFlippedByteFailsTheChecksum) {
  const std::string dir = FreshDir("ckpt_corrupt");
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(3, 7)).ok());
  const std::string path = dir + "/" + CheckpointFileName(3);

  // Flip one payload byte in place.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, f);
  std::fclose(f);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(CheckpointTest, TruncationAndBadMagicAreRejected) {
  const std::string dir = FreshDir("ckpt_truncated");
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(4, 7)).ok());
  const std::string path = dir + "/" + CheckpointFileName(4);

  // Truncate to just past the header.
  ASSERT_EQ(::truncate(path.c_str(), 24), 0);
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);

  // Replace with garbage that is not even the right magic.
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a checkpoint file", f);
  std::fclose(f);
  loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(CheckpointTest, LatestValidFallsBackPastCorruptedFiles) {
  const std::string dir = FreshDir("ckpt_fallback");
  const std::uint64_t fp = 0xF00DULL;
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(2, fp)).ok());
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(4, fp)).ok());

  // Corrupt the newest checkpoint; the loader must fall back to step 2 and
  // count the failed load.
  const std::string newest = dir + "/" + CheckpointFileName(4);
  FILE* f = std::fopen(newest.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(byte ^ 0x5A, f);
  std::fclose(f);

  obs::MetricCounter* failures =
      obs::MetricsRegistry::Global().counter("checkpoint.load_failures");
  const std::int64_t failures_before = failures->value();
  const auto loaded = LoadLatestValidCheckpoint(dir, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 2);
  EXPECT_GT(failures->value(), failures_before);
}

TEST(CheckpointTest, LatestValidSkipsForeignFingerprints) {
  const std::string dir = FreshDir("ckpt_fingerprint");
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(3, 111)).ok());
  ASSERT_TRUE(SaveCheckpoint(dir, SampleState(6, 222)).ok());

  // The newest checkpoint belongs to a different run configuration: fall
  // back to the older matching one instead of resuming into divergence.
  const auto loaded = LoadLatestValidCheckpoint(dir, 111);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 3);

  // Every checkpoint in the directory belongs to someone else: fail loudly
  // (kInternal) instead of silently starting fresh over foreign state.
  const auto none = LoadLatestValidCheckpoint(dir, 333);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInternal);
  EXPECT_NE(none.status().message().find("fingerprint mismatch"),
            std::string::npos);

  // An empty directory IS a fresh start: kNotFound, not an error.
  const std::string empty_dir = FreshDir("ckpt_fingerprint_empty");
  const auto fresh = LoadLatestValidCheckpoint(empty_dir, 333);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, SaveIntoMissingDirectoryFailsCleanly) {
  const std::string dir = ::testing::TempDir() + "ckpt_no_such_dir_xyz";
  const Status st = SaveCheckpoint(dir, SampleState(1, 1));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace memo::train
