// Microbenchmarks of the optimization substrate: LP solves, exact DSA via
// branch-and-bound, the DSA heuristics, and the full bi-level planning run.
// The paper reports "<5 minutes" of planning with a commercial solver; the
// bi-level structure keeps our from-scratch solver in the millisecond range.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/memo_executor.h"
#include "model/trace_gen.h"
#include "planner/bilevel_planner.h"
#include "solver/dsa.h"
#include "solver/simplex.h"

namespace {

memo::solver::LpProblem RandomLp(int vars, int constraints, int seed) {
  memo::Rng rng(seed);
  memo::solver::LpProblem lp;
  lp.num_vars = vars;
  for (int j = 0; j < vars; ++j) lp.objective.push_back(rng.NextInRange(1, 5));
  for (int i = 0; i < constraints; ++i) {
    std::vector<double> coeffs;
    for (int j = 0; j < vars; ++j) {
      coeffs.push_back(static_cast<double>(rng.NextInRange(0, 4)));
    }
    lp.AddConstraint(std::move(coeffs), memo::solver::LpProblem::Relation::kLe,
                     static_cast<double>(rng.NextInRange(10, 50)));
  }
  return lp;
}

void BM_SimplexSolve(benchmark::State& state) {
  const auto lp = RandomLp(static_cast<int>(state.range(0)),
                           static_cast<int>(state.range(0)) * 2, 11);
  for (auto _ : state) {
    auto solution = memo::solver::SolveLp(lp);
    benchmark::DoNotOptimize(solution.objective);
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(30)->Arg(60);

memo::solver::DsaInstance LayerInstance(std::int64_t seq_k) {
  memo::model::TraceGenOptions options;
  options.seq_local = seq_k * memo::kSeqK;
  options.tensor_parallel = 8;
  options.mode = memo::model::ActivationMode::kMemoBuffers;
  const auto fwd =
      memo::model::GenerateLayerForwardTrace(memo::model::Gpt7B(), options);
  return *memo::solver::DsaInstance::FromRequests(fwd, true);
}

void BM_DsaBestFitLayer(benchmark::State& state) {
  const auto instance = LayerInstance(64);
  for (auto _ : state) {
    auto a = memo::solver::SolveDsaBestFit(instance);
    benchmark::DoNotOptimize(a.peak);
  }
}
BENCHMARK(BM_DsaBestFitLayer);

void BM_DsaFirstFitDecreasingLayer(benchmark::State& state) {
  const auto instance = LayerInstance(64);
  for (auto _ : state) {
    auto a = memo::solver::SolveDsaFirstFitDecreasing(instance);
    benchmark::DoNotOptimize(a.peak);
  }
}
BENCHMARK(BM_DsaFirstFitDecreasingLayer);

void BM_DsaExactSmall(benchmark::State& state) {
  // A small adversarial instance that actually exercises branch & bound.
  memo::solver::DsaInstance instance;
  memo::Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const int start = static_cast<int>(rng.NextBounded(10));
    const int end = start + 1 + static_cast<int>(rng.NextBounded(10));
    instance.tensors.push_back(memo::solver::DsaTensor{
        i + 1, rng.NextInRange(1, 8) * 512, start, end});
  }
  for (auto _ : state) {
    auto a = memo::solver::SolveDsaExact(instance);
    benchmark::DoNotOptimize(a.ok());
  }
}
BENCHMARK(BM_DsaExactSmall);

void BM_BilevelPlanFullModel(benchmark::State& state) {
  memo::model::ModelConfig model = memo::model::Gpt7B();
  model.num_layers = static_cast<int>(state.range(0));
  memo::model::TraceGenOptions options;
  options.seq_local = 128 * memo::kSeqK;
  options.tensor_parallel = 8;
  options.mode = memo::model::ActivationMode::kMemoBuffers;
  const auto trace = memo::model::GenerateModelTrace(model, options);
  for (auto _ : state) {
    auto plan = memo::planner::PlanMemory(trace);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_BilevelPlanFullModel)->Arg(32)->Arg(80);

void BM_MemoIterationSimulation(benchmark::State& state) {
  // One full Table-3 cell: strategy validation + alpha LP + bi-level plan +
  // three-stream schedule.
  memo::core::PlanRequest request;
  request.model = memo::model::Gpt7B();
  request.seq = 512 * memo::kSeqK;
  request.cluster = memo::hw::PaperCluster(8);
  memo::parallel::ParallelStrategy strategy;
  strategy.tp = 4;
  strategy.cp = 2;
  for (auto _ : state) {
    auto r = memo::core::RunMemoIteration(request, strategy);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_MemoIterationSimulation);

}  // namespace

BENCHMARK_MAIN();
