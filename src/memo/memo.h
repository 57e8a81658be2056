#ifndef MEMO_MEMO_H_
#define MEMO_MEMO_H_

/// Umbrella header for the MEMO library. Most users need only this plus
/// the `memo_core` link target:
///
///   #include "memo/memo.h"
///
///   memo::core::PlanRequest request;  // kind best, system MEMO
///   request.model = memo::model::Gpt7B();
///   request.seq = 1024 * memo::kSeqK;
///   request.cluster = memo::hw::PaperCluster(8);
///   const memo::core::PlanResult best =
///       memo::core::ExecutePlanRequest(request);
///
/// Layered headers remain individually includable; see README.md for the
/// module map.

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/units.h"

#include "hw/calibration.h"
#include "hw/gpu_spec.h"

#include "sim/engine.h"

#include "model/activation_spec.h"
#include "model/model_config.h"
#include "model/trace_gen.h"

#include "alloc/caching_allocator.h"
#include "alloc/plan_allocator.h"
#include "alloc/trace_replay.h"

#include "cost/comm_cost.h"
#include "cost/flops.h"
#include "cost/kernel_cost.h"
#include "cost/metrics.h"
#include "cost/ring_attention.h"

#include "parallel/memory_model.h"
#include "parallel/pipeline.h"
#include "parallel/strategy.h"

#include "solver/dsa.h"
#include "solver/mip.h"
#include "solver/simplex.h"

#include "planner/bilevel_planner.h"
#include "planner/plan_io.h"

#include "core/alpha_solver.h"
#include "core/baseline_executors.h"
#include "core/executor.h"
#include "core/job_profiler.h"
#include "core/memo_executor.h"
#include "core/plan_request.h"
#include "core/report.h"
#include "core/timings.h"

#include "train/activation_store.h"
#include "train/adam.h"
#include "train/mini_gpt.h"
#include "train/ops.h"
#include "train/tensor.h"
#include "train/trainer.h"

#endif  // MEMO_MEMO_H_
