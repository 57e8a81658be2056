#include "solver/dsa.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

#include "common/logging.h"
#include "common/units.h"

namespace memo::solver {

namespace {
constexpr std::int64_t kGranularity = 512;
}  // namespace

StatusOr<DsaInstance> DsaInstance::FromRequests(
    const std::vector<model::MemoryRequest>& requests, bool allow_unmatched) {
  DsaInstance instance;
  std::unordered_map<std::int64_t, int> open;  // id -> index in tensors
  const int num_steps = static_cast<int>(requests.size());
  for (int step = 0; step < num_steps; ++step) {
    const model::MemoryRequest& r = requests[step];
    if (r.kind == model::MemoryRequest::Kind::kMalloc) {
      if (open.count(r.tensor_id) > 0) {
        return InvalidArgumentError("double malloc of tensor " + r.name);
      }
      open[r.tensor_id] = static_cast<int>(instance.tensors.size());
      instance.tensors.push_back(DsaTensor{
          r.tensor_id, AlignUp(r.bytes, kGranularity), step, num_steps});
    } else {
      auto it = open.find(r.tensor_id);
      if (it == open.end()) {
        if (allow_unmatched) continue;
        return InvalidArgumentError("free of unknown tensor " + r.name);
      }
      instance.tensors[it->second].end = step;
      open.erase(it);
    }
  }
  if (!open.empty() && !allow_unmatched) {
    return InvalidArgumentError("trace leaves tensors live at the end");
  }
  return instance;
}

std::int64_t DsaInstance::MaxLiveLowerBound() const {
  // Sweep: +size at start, -size at end.
  std::vector<std::pair<int, std::int64_t>> events;
  events.reserve(tensors.size() * 2);
  for (const DsaTensor& t : tensors) {
    events.emplace_back(t.start, t.size);
    events.emplace_back(t.end, -t.size);
  }
  std::sort(events.begin(), events.end());
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (const auto& [step, delta] : events) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

std::vector<std::pair<int, int>> DsaInstance::OverlapPairs() const {
  std::vector<std::pair<int, int>> pairs;
  const int n = static_cast<int>(tensors.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (tensors[i].Overlaps(tensors[j])) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

Status ValidateDsaAssignment(const DsaInstance& instance,
                             const DsaAssignment& assignment) {
  std::int64_t peak = 0;
  for (const DsaTensor& t : instance.tensors) {
    auto it = assignment.address.find(t.id);
    if (it == assignment.address.end()) {
      return InvalidArgumentError("tensor " + std::to_string(t.id) +
                                  " unplaced");
    }
    if (it->second < 0) {
      return InvalidArgumentError("negative address for tensor " +
                                  std::to_string(t.id));
    }
    peak = std::max(peak, it->second + t.size);
  }
  if (peak > instance.capacity) {
    return OutOfMemoryError("placement peak " + FormatBytes(peak) +
                            " exceeds capacity " +
                            FormatBytes(instance.capacity));
  }
  if (peak != assignment.peak) {
    return InternalError("assignment peak field is stale");
  }
  for (const auto& [i, j] : instance.OverlapPairs()) {
    const DsaTensor& a = instance.tensors[i];
    const DsaTensor& b = instance.tensors[j];
    const std::int64_t addr_a = assignment.address.at(a.id);
    const std::int64_t addr_b = assignment.address.at(b.id);
    const bool disjoint =
        addr_a + a.size <= addr_b || addr_b + b.size <= addr_a;
    if (!disjoint) {
      return InternalError("tensors " + std::to_string(a.id) + " and " +
                           std::to_string(b.id) +
                           " overlap in time and space");
    }
  }
  return OkStatus();
}

DsaAssignment SolveDsaBestFit(const DsaInstance& instance) {
  DsaAssignment result;
  result.lower_bound = instance.MaxLiveLowerBound();

  // Order tensors by malloc position (trace order).
  std::vector<const DsaTensor*> order;
  order.reserve(instance.tensors.size());
  for (const DsaTensor& t : instance.tensors) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const DsaTensor* a, const DsaTensor* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->size > b->size;
            });

  // Free gaps over [0, inf): map start -> end. Frees are applied lazily via
  // a min-heap of (end_step, addr, size).
  std::map<std::int64_t, std::int64_t> gaps;
  gaps[0] = std::int64_t{1} << 62;
  using Expiry = std::tuple<int, std::int64_t, std::int64_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
      expiries;

  auto release = [&gaps](std::int64_t addr, std::int64_t size) {
    auto next = gaps.lower_bound(addr);
    std::int64_t end = addr + size;
    // Coalesce with successor gap.
    if (next != gaps.end() && next->first == end) {
      end = next->second;
      gaps.erase(next);
    }
    // Coalesce with predecessor gap.
    auto prev = gaps.lower_bound(addr);
    if (prev != gaps.begin()) {
      --prev;
      if (prev->second == addr) {
        prev->second = end;
        return;
      }
    }
    gaps[addr] = end;
  };

  for (const DsaTensor* t : order) {
    // Expire tensors whose lifetime ended before this malloc.
    while (!expiries.empty() && std::get<0>(expiries.top()) <= t->start) {
      const auto [step, addr, size] = expiries.top();
      expiries.pop();
      release(addr, size);
    }
    // Best fit: smallest gap that holds the tensor; lowest address on ties.
    std::int64_t best_addr = -1;
    std::int64_t best_size = 0;
    for (const auto& [start, end] : gaps) {
      const std::int64_t size = end - start;
      if (size >= t->size && (best_addr < 0 || size < best_size)) {
        best_size = size;
        best_addr = start;
      }
    }
    MEMO_CHECK_GE(best_addr, 0);
    // Carve the placement out of the gap.
    const std::int64_t gap_end = gaps[best_addr];
    gaps.erase(best_addr);
    if (best_addr + t->size < gap_end) {
      gaps[best_addr + t->size] = gap_end;
    }
    result.address[t->id] = best_addr;
    result.peak = std::max(result.peak, best_addr + t->size);
    expiries.emplace(t->end, best_addr, t->size);
  }

  result.proved_optimal = result.peak == result.lower_bound;
  return result;
}

DsaAssignment SolveDsaFirstFitDecreasing(const DsaInstance& instance) {
  DsaAssignment result;
  result.lower_bound = instance.MaxLiveLowerBound();

  // Largest first; ties by earlier start, then id for determinism.
  std::vector<const DsaTensor*> order;
  order.reserve(instance.tensors.size());
  for (const DsaTensor& t : instance.tensors) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const DsaTensor* a, const DsaTensor* b) {
              if (a->size != b->size) return a->size > b->size;
              if (a->start != b->start) return a->start < b->start;
              return a->id < b->id;
            });

  struct Placed {
    const DsaTensor* tensor;
    std::int64_t address;
  };
  std::vector<Placed> placed;
  for (const DsaTensor* t : order) {
    // Collect address intervals blocked by lifetime-overlapping tensors and
    // scan for the lowest feasible address.
    std::vector<std::pair<std::int64_t, std::int64_t>> blocked;
    for (const Placed& p : placed) {
      if (p.tensor->Overlaps(*t)) {
        blocked.emplace_back(p.address, p.address + p.tensor->size);
      }
    }
    std::sort(blocked.begin(), blocked.end());
    std::int64_t addr = 0;
    for (const auto& [lo, hi] : blocked) {
      if (addr + t->size <= lo) break;  // fits below this blocker
      addr = std::max(addr, hi);
    }
    placed.push_back(Placed{t, addr});
    result.address[t->id] = addr;
    result.peak = std::max(result.peak, addr + t->size);
  }

  result.proved_optimal = result.peak == result.lower_bound;
  return result;
}

StatusOr<DsaAssignment> SolveDsaExact(const DsaInstance& instance,
                                      const MipOptions& options) {
  const int n = static_cast<int>(instance.tensors.size());
  if (n == 0) {
    DsaAssignment empty;
    empty.proved_optimal = true;
    return empty;
  }
  const auto pairs = instance.OverlapPairs();
  const int k = static_cast<int>(pairs.size());

  // Scale bytes so LP values stay O(1..100): unit = lower bound (or the
  // largest tensor if the bound is degenerate).
  std::int64_t lb = instance.MaxLiveLowerBound();
  if (lb <= 0) lb = 1;
  const double unit = static_cast<double>(lb);
  const double cap = static_cast<double>(
      std::min(instance.capacity,
               std::int64_t{8} * lb + 8 * kGranularity));  // tightened big-M

  // Variables: A_0..A_{n-1}, M (index n), z_0..z_{k-1} (index n+1+p).
  MipProblem mip;
  mip.lp.num_vars = n + 1 + k;
  mip.lp.objective.assign(mip.lp.num_vars, 0.0);
  mip.lp.objective[n] = -1.0;  // minimize M

  auto coeffs = [&]() { return std::vector<double>(mip.lp.num_vars, 0.0); };

  for (int i = 0; i < n; ++i) {
    // A_i + S_i <= M.
    auto c = coeffs();
    c[i] = 1.0;
    c[n] = -1.0;
    mip.lp.AddConstraint(std::move(c), LpProblem::Relation::kLe,
                         -instance.tensors[i].size / unit);
  }
  {
    // M <= cap.
    auto c = coeffs();
    c[n] = 1.0;
    mip.lp.AddConstraint(std::move(c), LpProblem::Relation::kLe, cap / unit);
  }
  for (int p = 0; p < k; ++p) {
    const auto [i, j] = pairs[p];
    const double si = instance.tensors[i].size / unit;
    const double sj = instance.tensors[j].size / unit;
    const double big_m = cap / unit;
    // A_i + S_i <= A_j + z_p * Mcap.
    auto c1 = coeffs();
    c1[i] = 1.0;
    c1[j] = -1.0;
    c1[n + 1 + p] = -big_m;
    mip.lp.AddConstraint(std::move(c1), LpProblem::Relation::kLe, -si);
    // A_j + S_j <= A_i + (1 - z_p) * Mcap.
    auto c2 = coeffs();
    c2[j] = 1.0;
    c2[i] = -1.0;
    c2[n + 1 + p] = big_m;
    mip.lp.AddConstraint(std::move(c2), LpProblem::Relation::kLe,
                         big_m - sj);
    // z_p <= 1.
    auto c3 = coeffs();
    c3[n + 1 + p] = 1.0;
    mip.lp.AddConstraint(std::move(c3), LpProblem::Relation::kLe, 1.0);
    mip.integer_vars.push_back(n + 1 + p);
  }

  const MipSolution solution = SolveMip(mip, options);
  if (solution.outcome == MipSolution::Outcome::kInfeasible) {
    return InfeasibleError("no placement fits the capacity");
  }

  // Recover exact integer addresses from the pair orientations: build the
  // precedence DAG (i before j when z = 0) and take longest paths.
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 0);
  for (int p = 0; p < k; ++p) {
    const auto [i, j] = pairs[p];
    if (solution.x[n + 1 + p] < 0.5) {
      succ[i].push_back(j);  // A_i + S_i <= A_j
    } else {
      succ[j].push_back(i);
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j : succ[i]) ++indegree[j];
  }
  std::vector<std::int64_t> address(n, 0);
  std::queue<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  int processed = 0;
  while (!ready.empty()) {
    const int i = ready.front();
    ready.pop();
    ++processed;
    for (int j : succ[i]) {
      address[j] =
          std::max(address[j], address[i] + instance.tensors[i].size);
      if (--indegree[j] == 0) ready.push(j);
    }
  }
  MEMO_CHECK_EQ(processed, n) << "orientation DAG has a cycle";

  DsaAssignment result;
  result.lower_bound = lb;
  for (int i = 0; i < n; ++i) {
    result.address[instance.tensors[i].id] = address[i];
    result.peak = std::max(result.peak, address[i] + instance.tensors[i].size);
  }
  if (result.peak > instance.capacity) {
    return InfeasibleError("orientation exceeds capacity");
  }
  result.proved_optimal =
      solution.outcome == MipSolution::Outcome::kOptimal ||
      result.peak == result.lower_bound;
  return result;
}

DsaAssignment SolveDsa(const DsaInstance& instance) {
  DsaAssignment best = SolveDsaBestFit(instance);
  if (best.proved_optimal) return best;
  const DsaAssignment ffd = SolveDsaFirstFitDecreasing(instance);
  if (ffd.peak < best.peak) best = ffd;
  if (best.proved_optimal) return best;
  if (static_cast<int>(instance.tensors.size()) > kExactTensorLimit ||
      static_cast<int>(instance.OverlapPairs().size()) > kExactPairLimit) {
    return best;
  }
  auto exact = SolveDsaExact(instance, kExactMipBudget);
  if (!exact.ok()) return best;
  return exact->peak < best.peak ? *exact : best;
}

}  // namespace memo::solver
