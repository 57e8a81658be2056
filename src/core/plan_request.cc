#include "core/plan_request.h"

#include "common/deadline.h"

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

void AddDsaOptions(FingerprintBuilder* fp, const char* prefix,
                   const solver::DsaSolveOptions& dsa) {
  const std::string p(prefix);
  fp->Add(p + ".tensor_limit", dsa.exact_tensor_limit);
  fp->Add(p + ".pair_limit", dsa.exact_pair_limit);
  fp->Add(p + ".mip_nodes", dsa.mip.max_nodes);
  fp->Add(p + ".mip_gap", dsa.mip.absolute_gap);
}

}  // namespace

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
  AddDsaOptions(&fp, "planner.l1", planner.level1);
  AddDsaOptions(&fp, "planner.l2", planner.level2);
  fp.Add("baseline.memory_plan", baseline_use_memory_plan);
  return fp.canonical();
}

std::uint64_t PlanRequest::Fingerprint() const {
  return Fnv1a64(CanonicalString());
}

SessionOptions PlanRequest::MakeSessionOptions() const {
  SessionOptions session;
  session.memo.calibration = calibration;
  session.memo.alpha_steps = alpha_steps;
  session.memo.forced_alpha = forced_alpha;
  session.memo.planner = planner;
  session.baseline.calibration = calibration;
  session.baseline.use_memory_plan = baseline_use_memory_plan;
  return session;
}

PlanRequest PlanRequestFromSession(parallel::SystemKind system,
                                   const Workload& workload,
                                   const hw::ClusterSpec& cluster,
                                   const SessionOptions& session) {
  PlanRequest request;
  request.system = system;
  request.model = workload.model;
  request.seq = workload.seq;
  request.cluster = cluster;
  // MemoOptions and BaselineOptions carry the calibration separately but
  // every caller in the tree sets them together; the request keeps one copy
  // and MakeSessionOptions re-fans it out.
  request.calibration = session.memo.calibration;
  request.alpha_steps = session.memo.alpha_steps;
  request.forced_alpha = session.memo.forced_alpha;
  request.planner = session.memo.planner;
  request.baseline_use_memory_plan = session.baseline.use_memory_plan;
  return request;
}

PlanResult ExecutePlanRequest(const PlanRequest& request,
                              const PlanExecOptions& exec) {
  PlanResult result;
  result.kind = request.kind;
  // A request that sat in the admission queue past its deadline must never
  // reach a solver: bail here before any simulation work starts.
  if (Status dl = CheckDeadline("plan_request_entry"); !dl.ok()) {
    result.status = dl;
    return result;
  }
  SessionOptions session = request.MakeSessionOptions();
  session.memo.timeline_path = exec.timeline_path;
  const Workload workload{request.model, request.seq};
  switch (request.kind) {
    case PlanQueryKind::kBestStrategy: {
      const SystemRunResult run =
          RunBestStrategy(request.system, workload, request.cluster, session);
      result.status = run.status;
      result.best = run.best;
      result.strategies_tried = run.strategies_tried;
      result.strategies_feasible = run.strategies_feasible;
      return result;
    }
    case PlanQueryKind::kStrategy: {
      auto run = RunStrategy(request.system, workload, request.strategy,
                             request.cluster, session);
      if (run.ok()) {
        result.best = *run;
        result.strategies_tried = result.strategies_feasible = 1;
      } else {
        result.status = run.status();
        result.strategies_tried = 1;
      }
      return result;
    }
    case PlanQueryKind::kMaxSeq: {
      if (request.seq_step <= 0) {
        result.status = InvalidArgumentError("maxseq needs seq_step > 0");
        return result;
      }
      result.max_seq =
          MaxSupportedSeqLen(request.system, request.model, request.cluster,
                             request.seq_step, request.seq_cap, session);
      // MaxSupportedSeqLen reports the best seq found so far; if the scan was
      // cut short by the deadline that partial answer must not be mistaken
      // for (and cached as) the true maximum.
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
