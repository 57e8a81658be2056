#ifndef MEMO_TESTS_PLAN_REQUEST_TESTING_H_
#define MEMO_TESTS_PLAN_REQUEST_TESTING_H_

// Short spellings of the planning requests the simulator tests build: one
// workload on one cluster, every solver knob at its default.

#include <cstdint>

#include "core/plan_request.h"

namespace memo::testplan {

/// A best-strategy request for `system` training `model` at `seq` tokens on
/// `cluster`; the executors read the same request with a strategy of their
/// own.
inline core::PlanRequest Request(
    const model::ModelConfig& model, std::int64_t seq,
    const hw::ClusterSpec& cluster,
    parallel::SystemKind system = parallel::SystemKind::kMemo) {
  core::PlanRequest request;
  request.system = system;
  request.model = model;
  request.seq = seq;
  request.cluster = cluster;
  return request;
}

/// The best feasible strategy of `system`, by MFU.
inline core::PlanResult Best(parallel::SystemKind system,
                             const model::ModelConfig& model,
                             std::int64_t seq,
                             const hw::ClusterSpec& cluster) {
  return core::ExecutePlanRequest(Request(model, seq, cluster, system));
}

/// The longest multiple of `step` up to `cap` that `system` trains.
inline std::int64_t MaxSeq(parallel::SystemKind system,
                           const model::ModelConfig& model,
                           const hw::ClusterSpec& cluster, std::int64_t step,
                           std::int64_t cap) {
  core::PlanRequest request = Request(model, step, cluster, system);
  request.kind = core::PlanQueryKind::kMaxSeq;
  request.seq_step = step;
  request.seq_cap = cap;
  return core::ExecutePlanRequest(request).max_seq;
}

}  // namespace memo::testplan

#endif  // MEMO_TESTS_PLAN_REQUEST_TESTING_H_
