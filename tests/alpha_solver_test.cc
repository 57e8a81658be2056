#include <gtest/gtest.h>

#include "common/units.h"
#include "core/alpha_solver.h"

namespace memo::core {
namespace {

AlphaInputs BaseInputs() {
  AlphaInputs in;
  in.s_input_bytes = 1 * kGiB;
  in.s_attn_bytes = 1 * kGiB;
  in.s_others_bytes = 14 * kGiB;
  in.pcie_bytes_per_second = 27.2 * kGBps;  // 32 GB/s * 0.85
  in.layer_forward_seconds = 1.0;
  in.num_layers = 32;
  in.host_bytes_per_gpu = 2 * kTiB;  // ample: overlap constraint dominates
  return in;
}

/// The paper's single-tier problem: the LP without a disk tier.
StatusOr<TieredAlphaResult> Solve(const AlphaInputs& in) {
  return SolveAlphaTiered(TieredAlphaInputs{in});
}

/// Quantizes a RAM-only split of `alpha`.
double Quantize(double alpha, int steps) {
  TieredAlphaResult result;
  result.alpha = alpha;
  result.alpha_ram = alpha;
  return QuantizeTieredAlpha(result, steps).alpha;
}

// Closed-form reference for the Eq. 1-3 optimum.
double ClosedForm(const AlphaInputs& in) {
  const double base =
      static_cast<double>(in.s_input_bytes + in.s_attn_bytes);
  const double others = static_cast<double>(in.s_others_bytes);
  const double a_overlap =
      (in.pcie_bytes_per_second * in.layer_forward_seconds - base) / others;
  const double a_host =
      (static_cast<double>(in.host_bytes_per_gpu) / (in.num_layers - 2) -
       base) /
      others;
  return std::clamp(std::min(a_overlap, a_host), 0.0, 1.0);
}

TEST(AlphaSolverTest, MatchesClosedFormOverlapBound) {
  AlphaInputs in = BaseInputs();
  // Overlap budget: 27.2 GB in 1 s; base 2 GiB => alpha ≈ (25.3-2)/14 > 1?
  // 27.2 GB ≈ 25.33 GiB; (25.33 - 2) / 14 = 1.67 -> clamped to 1... make the
  // layer faster so the bound bites.
  in.layer_forward_seconds = 0.4;  // 10.13 GiB budget
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->alpha, ClosedForm(in), 1e-6);
  EXPECT_TRUE(result->overlap_bound);
  EXPECT_LT(result->alpha, 1.0);
  EXPECT_GT(result->alpha, 0.0);
}

TEST(AlphaSolverTest, FullSwapWhenEverythingFits) {
  AlphaInputs in = BaseInputs();
  in.layer_forward_seconds = 2.0;  // plenty of transfer budget
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->alpha, 1.0);
  EXPECT_FALSE(result->overlap_bound);
  EXPECT_FALSE(result->host_memory_bound);
}

TEST(AlphaSolverTest, HostMemoryBound) {
  AlphaInputs in = BaseInputs();
  in.layer_forward_seconds = 10.0;         // overlap never binds
  in.host_bytes_per_gpu = 90 * kGiB;       // 90/30 = 3 GiB per layer budget
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  // (3 - 2) / 14 = 1/14.
  EXPECT_NEAR(result->alpha, 1.0 / 14.0, 1e-6);
  EXPECT_TRUE(result->host_memory_bound);
  EXPECT_FALSE(result->overlap_bound);
  EXPECT_NEAR(result->alpha, ClosedForm(in), 1e-6);
}

TEST(AlphaSolverTest, ZeroAlphaWhenTransfersAlreadySaturated) {
  AlphaInputs in = BaseInputs();
  // Short sequences: even input+attn can't fully hide — alpha = 0, valid.
  in.layer_forward_seconds = 0.01;
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->alpha, 0.0);
  EXPECT_TRUE(result->overlap_bound);
}

TEST(AlphaSolverTest, HostOomWhenBaseAloneExceedsHost) {
  AlphaInputs in = BaseInputs();
  in.host_bytes_per_gpu = 30 * kGiB;  // 1 GiB/layer < 2 GiB base
  auto result = Solve(in);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfHostMemory());
}

TEST(AlphaSolverTest, FewLayersTriviallyFullSwap) {
  AlphaInputs in = BaseInputs();
  in.num_layers = 2;  // last two layers never swap
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->alpha, 1.0);
}

TEST(AlphaSolverTest, RejectsBadInputs) {
  AlphaInputs in = BaseInputs();
  in.pcie_bytes_per_second = 0.0;
  EXPECT_FALSE(Solve(in).ok());
  in = BaseInputs();
  in.s_others_bytes = -1;
  EXPECT_FALSE(Solve(in).ok());
}

TEST(AlphaSolverTest, QuantizeRoundsDown) {
  EXPECT_DOUBLE_EQ(Quantize(1.0, 8), 1.0);
  EXPECT_DOUBLE_EQ(Quantize(0.49, 8), 0.375);
  EXPECT_DOUBLE_EQ(Quantize(0.51, 8), 0.5);
  EXPECT_DOUBLE_EQ(Quantize(0.1, 8), 0.0);
  EXPECT_DOUBLE_EQ(Quantize(0.7, 0), 0.7);  // disabled
}

TEST(AlphaSolverTest, QuantizeHardenedAgainstBadInputs) {
  // Non-positive step counts disable quantization but still clamp.
  EXPECT_DOUBLE_EQ(Quantize(1.7, 0), 1.0);
  EXPECT_DOUBLE_EQ(Quantize(-0.3, 0), 0.0);
  EXPECT_DOUBLE_EQ(Quantize(0.5, -4), 0.5);
  EXPECT_DOUBLE_EQ(Quantize(-1.0, -1), 0.0);
  // Out-of-range alphas are clamped before quantizing.
  EXPECT_DOUBLE_EQ(Quantize(2.5, 8), 1.0);
  EXPECT_DOUBLE_EQ(Quantize(-0.5, 8), 0.0);
}

TEST(AlphaSolverTest, ExactlyAtHostCapacityIsNotAnError) {
  // Boundary of the §4.1 host constraint: base == budget exactly must solve
  // (alpha 0, host-memory bound), not report kOutOfHostMemory.
  AlphaInputs in = BaseInputs();
  in.layer_forward_seconds = 10.0;  // overlap slack everywhere
  // base = 2 GiB per layer; 30 swapped layers -> 60 GiB hits it exactly.
  in.host_bytes_per_gpu = 60 * kGiB;
  auto result = Solve(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->alpha, 0.0);
  EXPECT_TRUE(result->host_memory_bound);
}

TEST(AlphaSolverTest, ZeroAlphaViaOverlapStaysValidAtBoundary) {
  AlphaInputs in = BaseInputs();
  // Transfer budget exactly equals the base bytes: alpha 0 feasible with
  // the overlap constraint binding — a valid result, not an error.
  in.layer_forward_seconds =
      static_cast<double>(in.s_input_bytes + in.s_attn_bytes) /
      in.pcie_bytes_per_second;
  auto result = Solve(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->alpha, 0.0, 1e-9);
  EXPECT_TRUE(result->overlap_bound);
}

TieredAlphaInputs TieredBase() {
  TieredAlphaInputs in;
  in.ram = BaseInputs();
  in.disk_bytes_per_gpu = 2 * kTiB;
  in.disk_bytes_per_second = 6.0 * kGBps;
  return in;
}

TEST(TieredAlphaSolverTest, ZeroDiskDelegatesToSingleTier) {
  // Without a disk tier (its bandwidth is then ignored) the answer is the
  // single-tier §4.1 optimum, entirely in RAM.
  TieredAlphaInputs in = TieredBase();
  in.disk_bytes_per_gpu = 0;
  in.disk_bytes_per_second = 0.0;
  in.ram.layer_forward_seconds = 10.0;
  in.ram.host_bytes_per_gpu = 90 * kGiB;  // host-memory-bound single tier
  auto result = SolveAlphaTiered(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->alpha, ClosedForm(in.ram), 1e-9);
  EXPECT_DOUBLE_EQ(result->alpha_ram, result->alpha);
  EXPECT_DOUBLE_EQ(result->alpha_disk, 0.0);
  EXPECT_DOUBLE_EQ(result->base_ram_fraction, 1.0);
  EXPECT_TRUE(result->host_memory_bound);
  EXPECT_FALSE(result->overlap_bound);
  EXPECT_FALSE(result->disk_memory_bound);
  EXPECT_FALSE(result->disk_bandwidth_bound);
}

TEST(TieredAlphaSolverTest, ZeroDiskStillReportsHostOom) {
  TieredAlphaInputs in = TieredBase();
  in.disk_bytes_per_gpu = 0;
  in.disk_bytes_per_second = 0.0;
  in.ram.host_bytes_per_gpu = 30 * kGiB;  // base alone exceeds RAM
  auto result = SolveAlphaTiered(in);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfHostMemory());
}

TEST(TieredAlphaSolverTest, SpillsGracefullyWhereSingleTierOoms) {
  // Same inputs that make the single-tier LP abort with kOutOfHostMemory:
  // the 2 GiB base exceeds the 1 GiB/layer RAM budget. With a disk tier the
  // overflow spills to disk instead.
  TieredAlphaInputs in = TieredBase();
  in.ram.layer_forward_seconds = 10.0;  // PCIe overlap has slack
  in.ram.host_bytes_per_gpu = 30 * kGiB;
  ASSERT_TRUE(Solve(in.ram).status().IsOutOfHostMemory());
  auto result = SolveAlphaTiered(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Half of the base bytes fit in RAM (1 of 2 GiB per layer).
  EXPECT_NEAR(result->base_ram_fraction, 0.5, 1e-9);
  // RAM is saturated by the base, so every swapped row heads to disk, and
  // with 2 TiB of NVMe and 60 GB/s of budget the full swap fits.
  EXPECT_DOUBLE_EQ(result->alpha_ram, 0.0);
  EXPECT_NEAR(result->alpha, 1.0, 1e-9);
  EXPECT_NEAR(result->alpha_disk, 1.0, 1e-9);
}

TEST(TieredAlphaSolverTest, OomOnlyWhenBothTiersExhausted) {
  TieredAlphaInputs in = TieredBase();
  in.ram.layer_forward_seconds = 10.0;
  in.ram.host_bytes_per_gpu = 30 * kGiB;  // 1 GiB/layer of the 2 GiB base
  // The spilled 1 GiB/layer needs 30 GiB of disk; 20 GiB is not enough.
  in.disk_bytes_per_gpu = 20 * kGiB;
  auto result = SolveAlphaTiered(in);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfHostMemory());
}

TEST(TieredAlphaSolverTest, ExactlyAtCombinedCapacityIsNotAnError) {
  TieredAlphaInputs in = TieredBase();
  in.ram.layer_forward_seconds = 10.0;
  in.ram.host_bytes_per_gpu = 30 * kGiB;
  in.disk_bytes_per_gpu = 30 * kGiB;  // spilled base fits disk exactly
  auto result = SolveAlphaTiered(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->alpha, 0.0);
  EXPECT_NEAR(result->base_ram_fraction, 0.5, 1e-9);
}

TEST(TieredAlphaSolverTest, DiskBandwidthBindsTheDiskShare) {
  TieredAlphaInputs in = TieredBase();
  in.ram.layer_forward_seconds = 10.0;
  in.ram.host_bytes_per_gpu = 90 * kGiB;  // RAM holds base + 1 GiB of others
  // others * a_d <= B_disk * T: 14 GiB * a_d <= 0.7 GiB/s * 10 s -> a_d 0.5.
  in.disk_bytes_per_second = 0.7 * static_cast<double>(kGiB);
  auto result = SolveAlphaTiered(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->base_ram_fraction, 1.0);
  EXPECT_NEAR(result->alpha_ram, 1.0 / 14.0, 1e-6);
  EXPECT_NEAR(result->alpha_disk, 0.5, 1e-6);
  EXPECT_NEAR(result->alpha, 1.0 / 14.0 + 0.5, 1e-6);
  EXPECT_TRUE(result->disk_bandwidth_bound);
  EXPECT_LT(result->alpha, 1.0);
}

TEST(TieredAlphaSolverTest, RejectsMalformedDiskTier) {
  TieredAlphaInputs in = TieredBase();
  in.disk_bytes_per_gpu = -1;
  EXPECT_FALSE(SolveAlphaTiered(in).ok());
  in = TieredBase();
  in.disk_bytes_per_second = 0.0;  // capacity present but no bandwidth
  EXPECT_FALSE(SolveAlphaTiered(in).ok());
  in = TieredBase();
  in.ram.pcie_bytes_per_second = 0.0;  // bad single-tier inputs still caught
  EXPECT_FALSE(SolveAlphaTiered(in).ok());
}

TEST(TieredAlphaSolverTest, SharesAlwaysSumToAlphaAndStayFeasible) {
  for (int seed = 1; seed <= 12; ++seed) {
    TieredAlphaInputs in = TieredBase();
    in.ram.layer_forward_seconds = 0.05 + 0.11 * seed;
    in.ram.host_bytes_per_gpu = (48 + 19 * seed) * kGiB;
    in.disk_bytes_per_gpu = (16 + 40 * seed) * kGiB;
    auto result = SolveAlphaTiered(in);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_NEAR(result->alpha, result->alpha_ram + result->alpha_disk, 1e-9);
    EXPECT_GE(result->alpha_ram, -1e-12);
    EXPECT_GE(result->alpha_disk, -1e-12);
    EXPECT_LE(result->alpha, 1.0 + 1e-9);
    const double others = static_cast<double>(in.ram.s_others_bytes);
    const double base =
        static_cast<double>(in.ram.s_input_bytes + in.ram.s_attn_bytes);
    const double slack = 1e-6 * base;
    // PCIe overlap on the total.
    EXPECT_LE(base + result->alpha * others,
              in.ram.pcie_bytes_per_second * in.ram.layer_forward_seconds +
                  slack)
        << "seed " << seed;
    // Tier capacities on each share (greedy base split: RAM first).
    const double ram_budget = static_cast<double>(in.ram.host_bytes_per_gpu) /
                              (in.ram.num_layers - 2);
    const double base_ram = std::min(base, ram_budget);
    EXPECT_LE(base_ram + result->alpha_ram * others, ram_budget + slack)
        << "seed " << seed;
    const double disk_budget = static_cast<double>(in.disk_bytes_per_gpu) /
                               (in.ram.num_layers - 2);
    EXPECT_LE((base - base_ram) + result->alpha_disk * others,
              disk_budget + slack)
        << "seed " << seed;
  }
}

TEST(TieredAlphaSolverTest, QuantizeResplitsRamFirst) {
  TieredAlphaResult r;
  r.alpha = 0.63;
  r.alpha_ram = 0.2;
  r.alpha_disk = 0.43;
  TieredAlphaResult q = QuantizeTieredAlpha(r, 8);
  EXPECT_DOUBLE_EQ(q.alpha, 0.625);
  EXPECT_NEAR(q.alpha_ram + q.alpha_disk, q.alpha, 1e-12);
  EXPECT_LE(q.alpha_ram, r.alpha_ram + 1e-12);  // shares never grow
  EXPECT_LE(q.alpha_disk, r.alpha_disk + 1e-12);

  // When the quantized total undercuts the RAM share, disk drops to zero.
  TieredAlphaResult ram_only;
  ram_only.alpha = 0.3;
  ram_only.alpha_ram = 0.3;
  ram_only.alpha_disk = 0.0;
  TieredAlphaResult q2 = QuantizeTieredAlpha(ram_only, 8);
  EXPECT_DOUBLE_EQ(q2.alpha, 0.25);
  EXPECT_DOUBLE_EQ(q2.alpha_ram, 0.25);
  EXPECT_DOUBLE_EQ(q2.alpha_disk, 0.0);

  // steps <= 0 passes the split through unchanged.
  TieredAlphaResult q3 = QuantizeTieredAlpha(r, 0);
  EXPECT_DOUBLE_EQ(q3.alpha, r.alpha);
  EXPECT_DOUBLE_EQ(q3.alpha_ram, r.alpha_ram);
  EXPECT_DOUBLE_EQ(q3.alpha_disk, r.alpha_disk);
}

// Property: the solved alpha always satisfies both constraints, and
// alpha + 1/8 violates at least one (maximality) unless alpha == 1.
class AlphaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AlphaPropertyTest, FeasibleAndMaximal) {
  const int seed = GetParam();
  AlphaInputs in = BaseInputs();
  in.layer_forward_seconds = 0.05 + 0.11 * seed;
  in.host_bytes_per_gpu = (64 + 23 * seed) * kGiB;
  auto result = Solve(in);
  ASSERT_TRUE(result.ok());
  const double a = result->alpha;
  const double base = static_cast<double>(in.s_input_bytes + in.s_attn_bytes);
  const double others = static_cast<double>(in.s_others_bytes);
  const double used = base + a * others;
  EXPECT_LE(used / in.pcie_bytes_per_second,
            in.layer_forward_seconds * (1 + 1e-9));
  EXPECT_LE((in.num_layers - 2) * used,
            static_cast<double>(in.host_bytes_per_gpu) * (1 + 1e-9));
  if (a < 1.0) {
    const double used_more = base + std::min(1.0, a + 0.125) * others;
    const bool violates =
        used_more / in.pcie_bytes_per_second > in.layer_forward_seconds ||
        (in.num_layers - 2) * used_more >
            static_cast<double>(in.host_bytes_per_gpu);
    EXPECT_TRUE(violates) << "alpha " << a << " is not maximal";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AlphaPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace memo::core
