#ifndef MEMO_CORE_ALPHA_SOLVER_H_
#define MEMO_CORE_ALPHA_SOLVER_H_

#include <cstdint>

#include "common/status.h"

namespace memo::core {

/// Inputs of the §4.1 swap-fraction problem (Eq. 1-3), all per GPU:
///   max alpha
///   s.t. (S_input + S_attn + alpha*S_others) / B <= T_layer   (overlap)
///        (n-2) * (S_input + S_attn + alpha*S_others) <= M_CPU (host memory)
///        0 <= alpha <= 1.
struct AlphaInputs {
  std::int64_t s_input_bytes = 0;   // per-layer layer-input tensor
  std::int64_t s_attn_bytes = 0;    // per-layer FlashAttention output
  std::int64_t s_others_bytes = 0;  // per-layer remaining skeletal tensors
  double pcie_bytes_per_second = 0.0;  // effective B
  double layer_forward_seconds = 0.0;  // T_layer
  int num_layers = 0;                  // n
  std::int64_t host_bytes_per_gpu = 0; // M_CPU share of this GPU
};

/// Inputs of the swap-fraction problem over the host memory hierarchy: the
/// §4.1 LP, optionally extended with an NVMe-analog spill tier below host
/// RAM (SSDTrain-style hierarchy). Swapped bytes split into a RAM share a_r
/// and a disk share a_d; the disk share crosses PCIe *and* the (slower)
/// storage link, and the always-offloaded base bytes fill RAM first,
/// spilling the remainder.
struct TieredAlphaInputs {
  /// PCIe + host-RAM tier parameters (host_bytes_per_gpu = M_CPU share).
  AlphaInputs ram;
  /// Disk tier capacity share of this GPU; 0 means no disk tier, which
  /// leaves the paper's one-variable LP.
  std::int64_t disk_bytes_per_gpu = 0;
  /// Sustained disk bandwidth in bytes/s; must be > 0 when the tier exists.
  double disk_bytes_per_second = 0.0;
};

struct TieredAlphaResult {
  double alpha = 0.0;       // total swapped fraction, = alpha_ram + alpha_disk
  double alpha_ram = 0.0;   // share of `others` rows landing in host RAM
  double alpha_disk = 0.0;  // share of `others` rows spilling to disk
  /// Fraction of the always-offloaded (input + attention output) bytes that
  /// fits in RAM; the remainder spills to disk. 1.0 when RAM suffices.
  double base_ram_fraction = 1.0;
  /// Which constraints bind at the optimum (all false when alpha == 1 with
  /// slack everywhere; the disk flags stay false without a disk tier).
  bool overlap_bound = false;        // PCIe transfer time binding
  bool host_memory_bound = false;    // RAM tier capacity binding
  bool disk_memory_bound = false;    // disk tier capacity binding
  bool disk_bandwidth_bound = false; // storage link time binding
};

/// Solves the swap-fraction LP through the simplex substrate:
///   max  a_r + a_d            (RAM preferred at equal totals)
///   s.t. others*(a_r + a_d) <= B_pcie*T - base          (PCIe overlap)
///        others*a_d         <= B_disk*T - base_disk     (disk overlap)
///        others*a_r         <= M_ram/(n-2)  - base_ram  (RAM capacity)
///        others*a_d         <= M_disk/(n-2) - base_disk (disk capacity)
///        a_r + a_d <= 1,  a_r, a_d >= 0
/// where base_ram = min(base, M_ram/(n-2)) and base_disk is the spilled
/// remainder. Without a disk tier a_d and its rows drop out, leaving the
/// paper's one-variable LP (Eq. 1-3) verbatim.
///
/// Fails with kOutOfHostMemory when even alpha = 0 does not fit: the
/// always-offloaded layer inputs and attention outputs exceed RAM and disk
/// together (the paper's X_oohm outcome), and with kInvalidArgument on
/// malformed inputs. An alpha of 0 due to the *overlap* constraint is a
/// valid result (full token-wise recomputation), not an error.
StatusOr<TieredAlphaResult> SolveAlphaTiered(const TieredAlphaInputs& inputs);

/// Rounds the *total* swapped fraction DOWN to a multiple of 1/`steps`
/// (token groups must be discrete; the paper's Table 7 uses eighths) and
/// re-splits it RAM-first, so both tier shares shrink or stay equal and
/// every constraint of the solved LP remains satisfied. Non-positive
/// `steps` disables quantization; alpha is clamped to [0, 1] either way.
TieredAlphaResult QuantizeTieredAlpha(const TieredAlphaResult& result,
                                      int steps = 8);

/// Splits a given swap fraction over the tiers the way the executor places
/// the bytes: per swapped layer, the always-offloaded base bytes and then
/// the `others` share fill the layer's RAM budget (M_ram/(n-2)) and the
/// rest spills to disk. Sets alpha, alpha_ram, alpha_disk and
/// base_ram_fraction; no bound flag, and no capacity check.
TieredAlphaResult SplitAlphaRamFirst(const TieredAlphaInputs& inputs,
                                     double alpha);

}  // namespace memo::core

#endif  // MEMO_CORE_ALPHA_SOLVER_H_
