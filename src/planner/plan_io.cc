#include "planner/plan_io.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/file_io.h"
#include "common/fingerprint.h"

namespace memo::planner {

namespace {
constexpr char kHeader[] = "memo-plan v1";
}  // namespace

std::string SerializePlan(const MemoryPlan& plan) {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "arena " << plan.arena_bytes << "\n";
  out << "meta " << plan.layer_fwd_peak << " " << plan.layer_bwd_peak << " "
      << plan.lower_bound << " " << (plan.level1_fwd_optimal ? 1 : 0) << " "
      << (plan.level1_bwd_optimal ? 1 : 0) << " "
      << (plan.level2_optimal ? 1 : 0) << " " << plan.level2_tensors << "\n";
  // Deterministic order: by tensor id.
  std::vector<std::int64_t> ids;
  ids.reserve(plan.addresses.size());
  for (const auto& [id, address] : plan.addresses) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (std::int64_t id : ids) {
    auto size = plan.sizes.find(id);
    out << "tensor " << id << " " << plan.addresses.at(id) << " "
        << (size != plan.sizes.end() ? size->second : 0) << "\n";
  }
  return out.str();
}

StatusOr<MemoryPlan> ParsePlan(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return InvalidArgumentError("missing 'memo-plan v1' header");
  }
  MemoryPlan plan;
  bool have_arena = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "arena") {
      if (!(fields >> plan.arena_bytes) || plan.arena_bytes < 0) {
        return InvalidArgumentError("bad arena line: " + line);
      }
      have_arena = true;
    } else if (kind == "meta") {
      int l1f = 0;
      int l1b = 0;
      int l2 = 0;
      if (!(fields >> plan.layer_fwd_peak >> plan.layer_bwd_peak >>
            plan.lower_bound >> l1f >> l1b >> l2 >> plan.level2_tensors)) {
        return InvalidArgumentError("bad meta line: " + line);
      }
      plan.level1_fwd_optimal = l1f != 0;
      plan.level1_bwd_optimal = l1b != 0;
      plan.level2_optimal = l2 != 0;
    } else if (kind == "tensor") {
      std::int64_t id = 0;
      std::int64_t address = 0;
      std::int64_t size = 0;
      if (!(fields >> id >> address >> size) || address < 0 || size <= 0) {
        return InvalidArgumentError("bad tensor line: " + line);
      }
      if (!plan.addresses.emplace(id, address).second) {
        return InvalidArgumentError("duplicate tensor " + std::to_string(id));
      }
      plan.sizes[id] = size;
    } else {
      return InvalidArgumentError("unknown record kind: " + kind);
    }
  }
  if (!have_arena) return InvalidArgumentError("missing arena record");
  for (const auto& [id, address] : plan.addresses) {
    if (address + plan.sizes.at(id) > plan.arena_bytes) {
      return InvalidArgumentError("tensor " + std::to_string(id) +
                                  " exceeds the arena");
    }
  }
  return plan;
}

Status SavePlan(const MemoryPlan& plan, const std::string& path) {
  return WriteWholeFile(path, SerializePlan(plan), "plan",
                        WriteMode::kInPlace);
}

StatusOr<MemoryPlan> LoadPlan(const std::string& path) {
  MEMO_ASSIGN_OR_RETURN(const std::string text, ReadWholeFile(path, "plan"));
  return ParsePlan(text);
}

std::uint64_t PlanFingerprint(const MemoryPlan& plan) {
  std::vector<std::int64_t> ids;
  ids.reserve(plan.addresses.size());
  for (const auto& [id, address] : plan.addresses) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  FingerprintBuilder fp;
  fp.Add("arena", plan.arena_bytes);
  for (const std::int64_t id : ids) {
    fp.Add("id", id);
    fp.Add("addr", plan.addresses.at(id));
    fp.Add("size", plan.sizes.at(id));
  }
  return fp.Fingerprint();
}

}  // namespace memo::planner
