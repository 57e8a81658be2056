#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/units.h"

namespace memo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = OutOfMemoryError("need 4GiB");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_FALSE(s.IsOutOfHostMemory());
  EXPECT_EQ(s.ToString(), "OUT_OF_MEMORY: need 4GiB");
}

TEST(StatusTest, HostOomIsDistinctFromDeviceOom) {
  EXPECT_TRUE(OutOfHostMemoryError("x").IsOutOfHostMemory());
  EXPECT_FALSE(OutOfHostMemoryError("x").IsOutOfMemory());
  EXPECT_TRUE(InfeasibleError("x").IsInfeasible());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgumentError("bad");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

Status ReturnIfErrorHelper(bool fail) {
  MEMO_RETURN_IF_ERROR(fail ? InternalError("boom") : OkStatus());
  return OkStatus();
}

TEST(StatusMacrosTest, ReturnIfError) {
  EXPECT_TRUE(ReturnIfErrorHelper(false).ok());
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2 * kMiB), "2.00MiB");
  EXPECT_EQ(FormatBytes(80 * kGiB), "80.0GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00TiB");
  EXPECT_EQ(FormatBytes(-kGiB), "-1.00GiB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(1.5), "1.50s");
  EXPECT_EQ(FormatSeconds(0.012), "12.0ms");
  EXPECT_EQ(FormatSeconds(42e-6), "42.0us");
}

TEST(UnitsTest, FormatSeqLen) {
  EXPECT_EQ(FormatSeqLen(64 * kSeqK), "64K");
  EXPECT_EQ(FormatSeqLen(1408 * kSeqK), "1408K");
  EXPECT_EQ(FormatSeqLen(1000), "1000");
}

TEST(UnitsTest, AlignUpAndCeilDiv) {
  EXPECT_EQ(AlignUp(1, 512), 512);
  EXPECT_EQ(AlignUp(512, 512), 512);
  EXPECT_EQ(AlignUp(513, 512), 1024);
  EXPECT_EQ(CeilDiv(7, 2), 4);
  EXPECT_EQ(CeilDiv(8, 2), 4);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, SkipEqualsSequentialDraws) {
  // The state wraps mod 2^64 on most draws (the increment is 0.62 of 2^64),
  // and a skip of 1000 overflows the product draws * increment too. The
  // second start sits three draws below 2^64: three draws land on 0.
  for (const std::uint64_t state :
       {std::uint64_t{42}, std::uint64_t{0 - 3 * 0x9E3779B97F4A7C15ULL}}) {
    SCOPED_TRACE(state);
    for (const std::uint64_t draws : {0, 1, 2, 3, 7, 1000}) {
      SCOPED_TRACE(draws);
      Rng sequential(0);
      sequential.set_state(state);
      for (std::uint64_t i = 0; i < draws; ++i) sequential.NextUint64();
      Rng skipped(0);
      skipped.set_state(state);
      skipped.Skip(draws);
      EXPECT_EQ(skipped.state(), sequential.state());
      EXPECT_EQ(skipped.NextUint64(), sequential.NextUint64());
    }
  }
  Rng wrapping(0);
  wrapping.set_state(0 - 3 * 0x9E3779B97F4A7C15ULL);
  wrapping.Skip(3);
  EXPECT_EQ(wrapping.state(), 0u);
}

TEST(RngTest, BoundedAndRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    const std::int64_t r = rng.NextInRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(42);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long_header"});
  table.AddRow({"xxxxx", "1"});
  table.AddRow({"y"});  // short row padded
  const std::string out = table.ToString();
  EXPECT_NE(out.find("a       long_header"), std::string::npos);
  EXPECT_NE(out.find("-----   -----------"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(TablePrinterTest, StrFormat) {
  EXPECT_EQ(StrFormat("%.2f%%", 52.3), "52.30%");
  EXPECT_EQ(StrFormat("%d/%d", 3, 4), "3/4");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace memo
