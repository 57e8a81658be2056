#include "core/alpha_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "model/activation_spec.h"
#include "solver/simplex.h"

namespace memo::core {

namespace {

/// Rounds alpha DOWN to a multiple of 1/`steps`, after clamping it to
/// [0, 1]. Never rounds a feasible alpha up, so constraints stay satisfied.
double QuantizeAlpha(double alpha, int steps) {
  alpha = std::clamp(alpha, 0.0, 1.0);
  if (steps <= 0) return alpha;
  return std::floor(alpha * steps + 1e-9) / steps;
}

}  // namespace

StatusOr<TieredAlphaResult> SolveAlphaTiered(const TieredAlphaInputs& inputs) {
  const AlphaInputs& ram = inputs.ram;
  if (inputs.disk_bytes_per_gpu < 0) {
    return InvalidArgumentError("negative disk capacity");
  }
  if (ram.s_others_bytes < 0 || ram.s_input_bytes < 0 ||
      ram.s_attn_bytes < 0) {
    return InvalidArgumentError("negative tensor sizes");
  }
  if (ram.pcie_bytes_per_second <= 0.0 || ram.layer_forward_seconds <= 0.0) {
    return InvalidArgumentError("bandwidth and layer time must be positive");
  }
  const bool has_disk = inputs.disk_bytes_per_gpu > 0;
  if (has_disk && inputs.disk_bytes_per_second <= 0.0) {
    return InvalidArgumentError(
        "disk bandwidth must be positive when the disk tier has capacity");
  }
  const int swapped_layers = model::SwappedLayers(ram.num_layers);
  if (swapped_layers == 0) {
    // The last two layers never swap (§4.1); with n < 3 nothing is swapped
    // and any alpha trivially works.
    TieredAlphaResult trivial;
    trivial.alpha = 1.0;
    trivial.alpha_ram = 1.0;
    return trivial;
  }

  const double base = static_cast<double>(ram.s_input_bytes) +
                      static_cast<double>(ram.s_attn_bytes);
  const double others = static_cast<double>(ram.s_others_bytes);
  const double budget_overlap =
      ram.pcie_bytes_per_second * ram.layer_forward_seconds;
  const double budget_disk_time =
      inputs.disk_bytes_per_second * ram.layer_forward_seconds;
  const double budget_ram =
      static_cast<double>(ram.host_bytes_per_gpu) / swapped_layers;
  const double budget_disk =
      static_cast<double>(inputs.disk_bytes_per_gpu) / swapped_layers;

  // The always-offloaded bytes fill RAM first; the remainder spills. Only
  // when RAM *and* disk together cannot hold them is the run infeasible.
  const double base_ram = std::min(base, budget_ram);
  const double base_disk = base - base_ram;
  if (base_disk > budget_disk) {
    return OutOfHostMemoryError(
        has_disk ? "layer inputs and attention outputs exceed host RAM and "
                   "disk capacity combined"
                 : "layer inputs and attention outputs alone exceed host "
                   "memory");
  }

  TieredAlphaResult result;
  result.base_ram_fraction = base > 0.0 ? base_ram / base : 1.0;

  // One variable per tier, (a_r) or (a_r, a_d); simplex keeps them
  // non-negative. The tiny objective skew prefers the RAM tier when totals
  // tie.
  const auto row = [has_disk](double a_r, double a_d) {
    return has_disk ? std::vector<double>{a_r, a_d} : std::vector<double>{a_r};
  };
  solver::LpProblem lp;
  lp.num_vars = has_disk ? 2 : 1;
  lp.objective = row(has_disk ? 1.0 + 1e-9 : 1.0, 1.0);
  lp.AddConstraint(row(others, others), solver::LpProblem::Relation::kLe,
                   budget_overlap - base);
  if (has_disk) {
    lp.AddConstraint(row(0.0, others), solver::LpProblem::Relation::kLe,
                     budget_disk_time - base_disk);
  }
  lp.AddConstraint(row(others, 0.0), solver::LpProblem::Relation::kLe,
                   budget_ram - base_ram);
  if (has_disk) {
    lp.AddConstraint(row(0.0, others), solver::LpProblem::Relation::kLe,
                     budget_disk - base_disk);
  }
  lp.AddConstraint(row(1.0, 1.0), solver::LpProblem::Relation::kLe, 1.0);
  const solver::LpSolution solution = solver::SolveLp(lp);
  if (solution.outcome != solver::LpSolution::Outcome::kOptimal) {
    // alpha >= 0 is infeasible only when the base bytes alone exceed what a
    // layer time can move. That is a legal outcome: swap only what fits,
    // recompute the rest — alpha = 0 with the overlap constraint binding.
    result.alpha = 0.0;
    result.overlap_bound = true;
    return result;
  }

  result.alpha_ram = std::clamp(solution.x[0], 0.0, 1.0);
  result.alpha_disk = has_disk ? std::clamp(solution.x[1], 0.0, 1.0) : 0.0;
  result.alpha = std::min(1.0, result.alpha_ram + result.alpha_disk);
  const auto binding = [](double used, double budget) {
    return used >= budget - 1e-6 * std::max(1.0, budget);
  };
  result.overlap_bound =
      binding(base + result.alpha * others, budget_overlap);
  result.host_memory_bound =
      binding(base_ram + result.alpha_ram * others, budget_ram);
  if (has_disk) {
    const double disk_used = base_disk + result.alpha_disk * others;
    result.disk_memory_bound = binding(disk_used, budget_disk);
    result.disk_bandwidth_bound = binding(disk_used, budget_disk_time);
  }
  return result;
}

TieredAlphaResult QuantizeTieredAlpha(const TieredAlphaResult& result,
                                      int steps) {
  TieredAlphaResult quantized = result;
  quantized.alpha = QuantizeAlpha(result.alpha, steps);
  // RAM-first re-split: neither share can grow past its solved value, so
  // the quantized split satisfies every constraint the LP optimum did.
  quantized.alpha_ram = std::clamp(result.alpha_ram, 0.0, quantized.alpha);
  quantized.alpha_disk = quantized.alpha - quantized.alpha_ram;
  return quantized;
}

TieredAlphaResult SplitAlphaRamFirst(const TieredAlphaInputs& inputs,
                                     double alpha) {
  const int swapped_layers = model::SwappedLayers(inputs.ram.num_layers);
  const double host = static_cast<double>(inputs.ram.host_bytes_per_gpu);
  const double ram_budget = swapped_layers > 0 ? host / swapped_layers : host;
  const double base = static_cast<double>(inputs.ram.s_input_bytes +
                                          inputs.ram.s_attn_bytes);
  const double others = static_cast<double>(inputs.ram.s_others_bytes);
  TieredAlphaResult split;
  split.alpha = alpha;
  split.alpha_ram = alpha;
  split.base_ram_fraction = base > 0.0 ? std::min(base, ram_budget) / base
                                       : 1.0;
  if (others > 0.0 && alpha > 0.0) {
    const double others_ram =
        std::max(0.0, std::min(alpha * others, ram_budget - base));
    split.alpha_ram = others_ram / others;
    split.alpha_disk = alpha - split.alpha_ram;
  }
  return split;
}

}  // namespace memo::core
