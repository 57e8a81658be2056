#include "planner/bilevel_planner.h"

#include <algorithm>
#include <set>
#include <vector>

#include "alloc/plan_allocator.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "obs/trace_recorder.h"

namespace memo::planner {

namespace {

constexpr std::int64_t kGranularity = 512;

/// Tensors malloc'd AND freed within [begin, end) of the trace.
std::set<std::int64_t> LocalTensors(const model::ModelTrace& trace, int begin,
                                    int end) {
  std::set<std::int64_t> malloced;
  std::set<std::int64_t> local;
  for (int i = begin; i < end; ++i) {
    const model::MemoryRequest& r = trace.requests[i];
    if (r.kind == model::MemoryRequest::Kind::kMalloc) {
      malloced.insert(r.tensor_id);
    } else if (malloced.count(r.tensor_id) > 0) {
      local.insert(r.tensor_id);
    }
  }
  return local;
}

/// Level-1 result for one segment kind: relative addresses keyed by the
/// ordinal of the tensor's malloc among the segment's local mallocs.
struct SegmentPlan {
  std::vector<std::int64_t> relative_address;  // by local-malloc ordinal
  std::int64_t peak = 0;
  bool optimal = false;
};

StatusOr<SegmentPlan> PlanSegment(const model::ModelTrace& trace,
                                  const model::TraceSegment& segment) {
  const std::set<std::int64_t> local =
      LocalTensors(trace, segment.begin, segment.end);
  std::vector<model::MemoryRequest> requests;
  for (int i = segment.begin; i < segment.end; ++i) {
    const model::MemoryRequest& r = trace.requests[i];
    if (local.count(r.tensor_id) > 0) requests.push_back(r);
  }
  MEMO_ASSIGN_OR_RETURN(solver::DsaInstance instance,
                        solver::DsaInstance::FromRequests(requests));
  const solver::DsaAssignment assignment = solver::SolveDsa(instance);
  MEMO_RETURN_IF_ERROR(solver::ValidateDsaAssignment(instance, assignment));

  SegmentPlan plan;
  plan.peak = assignment.peak;
  plan.optimal = assignment.proved_optimal;
  for (int i = segment.begin; i < segment.end; ++i) {
    const model::MemoryRequest& r = trace.requests[i];
    if (r.kind == model::MemoryRequest::Kind::kMalloc &&
        local.count(r.tensor_id) > 0) {
      plan.relative_address.push_back(assignment.address.at(r.tensor_id));
    }
  }
  return plan;
}

}  // namespace

StatusOr<MemoryPlan> PlanMemory(const model::ModelTrace& trace) {
  MEMO_RETURN_IF_ERROR(trace.Validate());
  MemoryPlan plan;

  // ---- Level 1: representative layer forward / backward sub-plans.
  const model::TraceSegment* fwd_template = nullptr;
  const model::TraceSegment* bwd_template = nullptr;
  for (const model::TraceSegment& seg : trace.segments) {
    if (seg.name == "layer_fwd" && fwd_template == nullptr) {
      fwd_template = &seg;
    }
    if (seg.name == "layer_bwd" && bwd_template == nullptr) {
      bwd_template = &seg;
    }
  }

  // The per-layer level-1 instances are independent MIPs, so solve them
  // concurrently on the shared pool (the paper solves its per-layer DSA
  // instances the same way); results are consumed in a fixed order below,
  // so the plan is identical for any pool size.
  StatusOr<SegmentPlan> fwd_result = SegmentPlan{};
  StatusOr<SegmentPlan> bwd_result = SegmentPlan{};
  {
    std::vector<std::function<void()>> solves;
    if (fwd_template != nullptr) {
      solves.push_back([&] {
        MEMO_TRACE_SCOPE("dsa_solve_fwd", "planner");
        fwd_result = PlanSegment(trace, *fwd_template);
      });
    }
    if (bwd_template != nullptr) {
      solves.push_back([&] {
        MEMO_TRACE_SCOPE("dsa_solve_bwd", "planner");
        bwd_result = PlanSegment(trace, *bwd_template);
      });
    }
    ThreadPool::Global().RunTasks(solves);
  }
  SegmentPlan fwd_plan;
  SegmentPlan bwd_plan;
  if (fwd_template != nullptr) {
    MEMO_ASSIGN_OR_RETURN(fwd_plan, std::move(fwd_result));
    plan.layer_fwd_peak = fwd_plan.peak;
    plan.level1_fwd_optimal = fwd_plan.optimal;
  }
  if (bwd_template != nullptr) {
    MEMO_ASSIGN_OR_RETURN(bwd_plan, std::move(bwd_result));
    plan.layer_bwd_peak = bwd_plan.peak;
    plan.level1_bwd_optimal = bwd_plan.optimal;
  }

  // ---- Level 2: collapse each layer segment into one pseudo-request.
  // Pseudo ids live above the real id range.
  std::int64_t next_pseudo_id = 0;
  for (const model::MemoryRequest& r : trace.requests) {
    next_pseudo_id = std::max(next_pseudo_id, r.tensor_id + 1);
  }

  struct PseudoSegment {
    const model::TraceSegment* segment;
    const SegmentPlan* plan;
    std::int64_t pseudo_id;
  };
  std::vector<PseudoSegment> pseudo_segments;
  std::vector<model::MemoryRequest> level2;
  for (const model::TraceSegment& seg : trace.segments) {
    const bool is_layer = seg.name == "layer_fwd" || seg.name == "layer_bwd";
    if (!is_layer) {
      for (int i = seg.begin; i < seg.end; ++i) {
        level2.push_back(trace.requests[i]);
      }
      continue;
    }
    const SegmentPlan& seg_plan =
        seg.name == "layer_fwd" ? fwd_plan : bwd_plan;
    const std::set<std::int64_t> local =
        LocalTensors(trace, seg.begin, seg.end);
    const std::int64_t pseudo_id = next_pseudo_id++;
    pseudo_segments.push_back(PseudoSegment{&seg, &seg_plan, pseudo_id});
    // Pseudo malloc first, then the segment's cross-segment requests, then
    // the pseudo free — the pseudo block is live for the whole segment.
    if (seg_plan.peak > 0) {
      level2.push_back(model::MemoryRequest{
          model::MemoryRequest::Kind::kMalloc, pseudo_id, seg_plan.peak,
          false, seg.name + "_block"});
    }
    for (int i = seg.begin; i < seg.end; ++i) {
      const model::MemoryRequest& r = trace.requests[i];
      if (local.count(r.tensor_id) == 0) level2.push_back(r);
    }
    if (seg_plan.peak > 0) {
      level2.push_back(model::MemoryRequest{model::MemoryRequest::Kind::kFree,
                                            pseudo_id, seg_plan.peak, false,
                                            seg.name + "_block"});
    }
  }

  MEMO_ASSIGN_OR_RETURN(solver::DsaInstance level2_instance,
                        solver::DsaInstance::FromRequests(level2));
  plan.level2_tensors = static_cast<int>(level2_instance.tensors.size());
  MEMO_TRACE_SCOPE_ARG("dsa_solve_level2", "planner", "tensors",
                       plan.level2_tensors);
  const solver::DsaAssignment level2_assignment =
      solver::SolveDsa(level2_instance);
  MEMO_RETURN_IF_ERROR(
      solver::ValidateDsaAssignment(level2_instance, level2_assignment));
  plan.arena_bytes = level2_assignment.peak;
  plan.level2_optimal = level2_assignment.proved_optimal;

  // ---- Compose final addresses.
  // Cross-segment and non-layer tensors take their level-2 address directly.
  std::set<std::int64_t> pseudo_ids;
  for (const PseudoSegment& p : pseudo_segments) {
    pseudo_ids.insert(p.pseudo_id);
  }
  for (const auto& [id, address] : level2_assignment.address) {
    if (pseudo_ids.count(id) == 0) plan.addresses[id] = address;
  }
  // Layer-local tensors: pseudo base + level-1 relative address, matched by
  // local-malloc ordinal (all layers share the template's request shape).
  for (const PseudoSegment& p : pseudo_segments) {
    if (p.plan->peak == 0) continue;
    const std::int64_t base = level2_assignment.address.at(p.pseudo_id);
    const std::set<std::int64_t> local =
        LocalTensors(trace, p.segment->begin, p.segment->end);
    std::size_t ordinal = 0;
    for (int i = p.segment->begin; i < p.segment->end; ++i) {
      const model::MemoryRequest& r = trace.requests[i];
      if (r.kind != model::MemoryRequest::Kind::kMalloc ||
          local.count(r.tensor_id) == 0) {
        continue;
      }
      if (ordinal >= p.plan->relative_address.size()) {
        return InternalError(
            "layer segment shape differs from the template segment");
      }
      plan.addresses[r.tensor_id] = base + p.plan->relative_address[ordinal];
      ++ordinal;
    }
    if (ordinal != p.plan->relative_address.size()) {
      return InternalError(
          "layer segment has fewer local tensors than the template");
    }
  }

  // Record rounded sizes and the whole-trace lower bound.
  for (const model::MemoryRequest& r : trace.requests) {
    if (r.kind == model::MemoryRequest::Kind::kMalloc) {
      plan.sizes[r.tensor_id] = AlignUp(r.bytes, kGranularity);
    }
  }
  MEMO_ASSIGN_OR_RETURN(solver::DsaInstance whole,
                        solver::DsaInstance::FromRequests(trace.requests));
  plan.lower_bound = whole.MaxLiveLowerBound();

  MEMO_RETURN_IF_ERROR(VerifyPlan(trace, plan));
  return plan;
}

Status VerifyPlan(const model::ModelTrace& trace, const MemoryPlan& plan) {
  alloc::PlanAllocator allocator(plan.arena_bytes);
  for (const auto& [id, address] : plan.addresses) {
    auto size = plan.sizes.find(id);
    if (size == plan.sizes.end()) {
      return InternalError("planned tensor " + std::to_string(id) +
                           " has no recorded size");
    }
    MEMO_RETURN_IF_ERROR(allocator.Bind(id, address, size->second));
  }
  for (const model::MemoryRequest& r : trace.requests) {
    if (r.kind == model::MemoryRequest::Kind::kMalloc) {
      MEMO_RETURN_IF_ERROR(allocator.Allocate(r.tensor_id));
    } else {
      MEMO_RETURN_IF_ERROR(allocator.Free(r.tensor_id));
    }
  }
  return OkStatus();
}

}  // namespace memo::planner
