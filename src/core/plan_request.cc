#include "core/plan_request.h"

#include <cmath>

#include "common/deadline.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/baseline_executors.h"
#include "core/memo_executor.h"
#include "solver/dsa.h"

namespace memo::core {

const char* PlanQueryKindToString(PlanQueryKind kind) {
  switch (kind) {
    case PlanQueryKind::kBestStrategy:
      return "best";
    case PlanQueryKind::kStrategy:
      return "strategy";
    case PlanQueryKind::kMaxSeq:
      return "maxseq";
  }
  return "unknown";
}

StatusOr<PlanQueryKind> PlanQueryKindFromString(const std::string& name) {
  if (name == "best") return PlanQueryKind::kBestStrategy;
  if (name == "strategy") return PlanQueryKind::kStrategy;
  if (name == "maxseq") return PlanQueryKind::kMaxSeq;
  return InvalidArgumentError("unknown plan query kind \"" + name +
                              "\" (best|strategy|maxseq)");
}

namespace {

/// Each domain error names the protocol field at fault first.
Status OutOfDomain(const char* field, const char* domain, double got) {
  return InvalidArgumentError(
      StrFormat("%s must be %s (got %.10g)", field, domain, got));
}

void AddCalibration(FingerprintBuilder* fp, const hw::Calibration& cal) {
  fp->Add("cal.gemm", cal.gemm_efficiency);
  fp->Add("cal.flash_fwd", cal.flash_fwd_efficiency);
  fp->Add("cal.flash_bwd", cal.flash_bwd_efficiency);
  fp->Add("cal.elementwise", cal.elementwise_overhead_fraction);
  fp->Add("cal.collective", cal.collective_efficiency);
  fp->Add("cal.pcie", cal.pcie_efficiency);
  fp->Add("cal.disk", cal.disk_efficiency);
  fp->Add("cal.coll_latency", cal.collective_latency_s);
  fp->Add("cal.reorg_per_byte", cal.reorg_seconds_per_byte);
  fp->Add("cal.reorg_fixed", cal.reorg_fixed_seconds);
  fp->Add("cal.iter_overhead", cal.iteration_fixed_overhead_fraction);
}

/// The exact-MIP budgets SolveDsa runs both planner levels under.
void AddDsaBudgets(FingerprintBuilder* fp, const char* prefix) {
  const std::string p(prefix);
  fp->Add(p + ".tensor_limit", solver::kExactTensorLimit);
  fp->Add(p + ".pair_limit", solver::kExactPairLimit);
  fp->Add(p + ".mip_nodes", solver::kExactMipBudget.max_nodes);
  fp->Add(p + ".mip_gap", solver::kExactMipBudget.absolute_gap);
}

}  // namespace

Status CheckGpuCount(int gpus) {
  if (gpus >= 1 && gpus <= kMaxGpus && (gpus < 8 || gpus % 8 == 0)) {
    return OkStatus();
  }
  return OutOfDomain("gpus", "1 to 7 or a multiple of 8, at most 2^20", gpus);
}

std::string PlanRequest::CanonicalString() const {
  FingerprintBuilder fp;
  fp.Add("kind", static_cast<int>(kind));
  fp.Add("system", parallel::SystemKindToString(system));

  fp.Add("model.layers", model.num_layers);
  fp.Add("model.hidden", model.hidden);
  fp.Add("model.ffn", model.ffn_hidden);
  fp.Add("model.heads", model.num_heads);
  fp.Add("model.kv_heads", model.num_kv_heads);
  fp.Add("model.vocab", model.vocab);

  fp.Add("seq", seq);

  fp.Add("gpu.flops", cluster.node.gpu.peak_flops);
  fp.Add("gpu.memory", cluster.node.gpu.memory_bytes);
  fp.Add("gpu.pcie", cluster.node.gpu.pcie_bandwidth);
  fp.Add("node.gpus", cluster.node.gpus_per_node);
  fp.Add("node.host_bytes", cluster.node.host_memory_bytes);
  fp.Add("node.nvlink", cluster.node.nvlink_bandwidth);
  fp.Add("node.ib", cluster.node.ib_bandwidth);
  fp.Add("node.nvme_bytes", cluster.node.nvme_bytes);
  fp.Add("node.nvme_bw", cluster.node.nvme_bandwidth);
  fp.Add("cluster.nodes", cluster.num_nodes);

  if (kind == PlanQueryKind::kStrategy) {
    fp.Add("strategy.tp", strategy.tp);
    fp.Add("strategy.cp", strategy.cp);
    fp.Add("strategy.pp", strategy.pp);
    fp.Add("strategy.vp", strategy.virtual_pipeline);
    fp.Add("strategy.dp", strategy.dp);
    fp.Add("strategy.sp", strategy.ulysses_sp);
    fp.Add("strategy.zero", strategy.zero_stage);
    fp.Add("strategy.full_recompute", strategy.full_recompute);
  }
  if (kind == PlanQueryKind::kMaxSeq) {
    fp.Add("maxseq.step", seq_step);
    fp.Add("maxseq.cap", seq_cap);
  }

  AddCalibration(&fp, calibration);
  fp.Add("alpha_steps", alpha_steps);
  fp.Add("forced_alpha", forced_alpha);
  AddDsaBudgets(&fp, "planner.l1");
  AddDsaBudgets(&fp, "planner.l2");
  fp.Add("baseline.memory_plan", baseline_use_memory_plan);
  return fp.canonical();
}

Status PlanRequest::Validate() const {
  MEMO_RETURN_IF_ERROR(CheckGpuCount(cluster.total_gpus()));
  const hw::NodeSpec& node = cluster.node;
  const bool maxseq = kind == PlanQueryKind::kMaxSeq;
  const double gib = static_cast<double>(kGiB);
  const struct {
    bool ok;
    const char* field;
    const char* domain;
    double got;
  } rules[] = {
      {seq >= 1 && seq <= kMaxSeqLen, "seq", "1 to 2^40 tokens",
       static_cast<double>(seq)},
      {node.host_memory_bytes >= 1, "host_gib", "positive",
       static_cast<double>(node.host_memory_bytes) / gib},
      // Zero bytes is the default: no NVMe tier.
      {node.nvme_bytes >= 0, "nvme_gib", "at least 0",
       static_cast<double>(node.nvme_bytes) / gib},
      {std::isfinite(node.nvme_bandwidth) && node.nvme_bandwidth > 0.0,
       "nvme_gbps", "positive and finite", node.nvme_bandwidth / kGBps},
      // -1 is the "solve for alpha" default; a NaN fails the range test.
      {forced_alpha == -1.0 || (forced_alpha >= 0.0 && forced_alpha <= 1.0),
       "alpha", "in [0, 1]", forced_alpha},
      {alpha_steps >= 0, "alpha_steps", "at least 0 (0 = continuous)",
       static_cast<double>(alpha_steps)},
      {!maxseq || seq_step >= 1, "step", "at least 1",
       static_cast<double>(seq_step)},
      {!maxseq || (seq_cap >= seq_step && seq_cap <= kMaxSeqLen), "cap",
       "step to 2^40 tokens", static_cast<double>(seq_cap)},
  };
  for (const auto& rule : rules) {
    if (!rule.ok) return OutOfDomain(rule.field, rule.domain, rule.got);
  }
  return OkStatus();
}

std::uint64_t PlanRequest::Fingerprint() const {
  return Fnv1a64(CanonicalString());
}

namespace {

StatusOr<IterationResult> RunStrategy(
    const PlanRequest& request, const parallel::ParallelStrategy& strategy) {
  switch (request.system) {
    case parallel::SystemKind::kMemo:
      return RunMemoIteration(request, strategy);
    case parallel::SystemKind::kMegatron:
      return RunMegatronIteration(request, strategy);
    case parallel::SystemKind::kDeepSpeed:
      return RunDeepSpeedIteration(request, strategy);
  }
  return InternalError("unknown system");
}

/// The kBestStrategy answer for `request.seq`.
PlanResult SweepStrategies(const PlanRequest& request) {
  PlanResult result;
  bool saw_host_oom = false;
  bool found = false;
  for (const parallel::ParallelStrategy& strategy :
       parallel::EnumerateStrategies(request.system, request.model,
                                     request.cluster, request.seq)) {
    // Phase boundary: a serve-side request deadline aborts the sweep between
    // candidates rather than mid-simulation, so partial results stay coherent.
    if (Status dl = CheckDeadline("strategy_sweep"); !dl.ok()) {
      result.status = dl;
      return result;
    }
    ++result.strategies_tried;
    auto run = RunStrategy(request, strategy);
    if (!run.ok()) {
      if (run.status().IsOutOfHostMemory()) saw_host_oom = true;
      continue;
    }
    ++result.strategies_feasible;
    if (!found || run->metrics.mfu > result.best.metrics.mfu) {
      result.best = *run;
      found = true;
    }
  }
  if (!found) {
    result.status = saw_host_oom
                        ? OutOfHostMemoryError("all strategies host-bound")
                        : OutOfMemoryError("no strategy fits device memory");
  }
  return result;
}

}  // namespace

PlanResult ExecutePlanRequest(const PlanRequest& request) {
  PlanResult result;
  result.kind = request.kind;
  if (Status valid = request.Validate(); !valid.ok()) {
    result.status = valid;
    return result;
  }
  // A request that sat in the admission queue past its deadline must never
  // reach a solver: bail here before any simulation work starts.
  if (Status dl = CheckDeadline("plan_request_entry"); !dl.ok()) {
    result.status = dl;
    return result;
  }
  switch (request.kind) {
    case PlanQueryKind::kBestStrategy:
      return SweepStrategies(request);
    case PlanQueryKind::kStrategy: {
      result.strategies_tried = 1;
      auto run = RunStrategy(request, request.strategy);
      if (run.ok()) {
        result.best = *run;
        result.strategies_feasible = 1;
      } else {
        result.status = run.status();
      }
      return result;
    }
    case PlanQueryKind::kMaxSeq: {
      PlanRequest probe = request;
      for (probe.seq = request.seq_step; probe.seq <= request.seq_cap;
           probe.seq += request.seq_step) {
        if (!CheckDeadline("maxseq_scan").ok()) break;
        const PlanResult run = SweepStrategies(probe);
        if (run.status.IsDeadlineExceeded()) break;
        if (run.status.ok()) {
          result.max_seq = probe.seq;
        } else if (probe.seq > result.max_seq + 4 * request.seq_step) {
          break;  // four consecutive failures past the best: stop scanning
        }
      }
      // The scan reports the best seq found so far; if the deadline cut it
      // short, that partial answer must not be mistaken for (and cached as)
      // the true maximum.
      if (Status dl = CheckDeadline("maxseq_scan"); !dl.ok()) {
        result.status = dl;
      }
      return result;
    }
  }
  result.status = InternalError("unknown plan query kind");
  return result;
}

}  // namespace memo::core
