#include "parallel/strategy.h"

#include <algorithm>
#include <sstream>

#include "common/table_printer.h"

namespace memo::parallel {

const char* SystemKindToString(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMemo:
      return "MEMO";
    case SystemKind::kMegatron:
      return "Megatron-LM";
    case SystemKind::kDeepSpeed:
      return "DeepSpeed";
  }
  return "?";
}

std::string ParallelStrategy::ToString() const {
  std::ostringstream out;
  out << "TP=" << tp << " CP=" << cp << " PP=" << pp << " DP=" << dp;
  if (virtual_pipeline > 1) out << " VPP=" << virtual_pipeline;
  if (ulysses_sp > 1) out << " SP=" << ulysses_sp;
  out << " ZeRO=" << zero_stage << " AR=" << (full_recompute ? "on" : "off");
  return out.str();
}

ParallelStrategy SystemRecipe(SystemKind system) {
  ParallelStrategy s;
  s.zero_stage = system == SystemKind::kDeepSpeed ? 3 : 1;
  s.full_recompute = system != SystemKind::kMemo;
  return s;
}

Status ValidateStrategy(SystemKind system, const ParallelStrategy& strategy,
                        const model::ModelConfig& model,
                        const hw::ClusterSpec& cluster, std::int64_t seq) {
  MEMO_RETURN_IF_ERROR(model.Validate());
  if (strategy.tp < 1 || strategy.cp < 1 || strategy.pp < 1 ||
      strategy.dp < 1 || strategy.ulysses_sp < 1) {
    return InvalidArgumentError("parallel degrees must be >= 1");
  }
  if (strategy.zero_stage < 0 || strategy.zero_stage > 3) {
    return InvalidArgumentError("ZeRO stage must be 0 to 3");
  }
  // world_size() in 64 bits, capped at 2^32: each degree fits an int, but
  // a request's degrees need not multiply to one.
  constexpr std::int64_t kCap = std::int64_t{1} << 32;
  std::int64_t world = 1;
  for (const int degree : {strategy.tp, strategy.cp, strategy.pp,
                           strategy.dp, strategy.ulysses_sp}) {
    world = std::min(world * degree, kCap);
  }
  if (world != cluster.total_gpus()) {
    return InvalidArgumentError(StrFormat(
        "strategy uses %s%lld GPUs but cluster has %d",
        world == kCap ? "at least " : "", static_cast<long long>(world),
        cluster.total_gpus()));
  }
  if (strategy.tp > cluster.node.gpus_per_node) {
    return InvalidArgumentError(
        "TP group must fit inside one node (NVLink domain)");
  }
  if (model.num_heads % strategy.tp != 0) {
    return InvalidArgumentError("TP must divide the attention head count");
  }
  if (model.hidden % strategy.tp != 0 || model.ffn_hidden % strategy.tp != 0) {
    return InvalidArgumentError("TP must divide hidden and ffn_hidden");
  }
  if (model.num_layers % strategy.pp != 0) {
    return InvalidArgumentError("PP must divide the layer count");
  }
  if (strategy.virtual_pipeline < 1) {
    return InvalidArgumentError("virtual_pipeline must be >= 1");
  }
  if (strategy.virtual_pipeline > 1 &&
      (strategy.pp <= 1 ||
       (model.num_layers / strategy.pp) % strategy.virtual_pipeline != 0)) {
    return InvalidArgumentError(
        "virtual_pipeline requires pp > 1 and must divide the per-stage "
        "layer count");
  }
  if (seq % (static_cast<std::int64_t>(strategy.cp) * strategy.ulysses_sp) !=
      0) {
    return InvalidArgumentError("CP*SP must divide the sequence length");
  }
  switch (system) {
    case SystemKind::kDeepSpeed:
      if (strategy.cp != 1 || strategy.tp != 1 || strategy.pp != 1) {
        return InvalidArgumentError(
            "DeepSpeed-Ulysses baseline uses SP/DP/ZeRO only");
      }
      // §5.2: the Ulysses SP degree must divide the number of heads.
      if (model.num_heads % strategy.ulysses_sp != 0) {
        return InvalidArgumentError(
            "Ulysses SP must divide the attention head count");
      }
      break;
    case SystemKind::kMegatron:
    case SystemKind::kMemo:
      if (strategy.ulysses_sp != 1) {
        return InvalidArgumentError(
            "Ulysses SP is a DeepSpeed-only strategy dimension");
      }
      if (strategy.zero_stage > 1) {
        return InvalidArgumentError(
            "Megatron/MEMO runs use the ZeRO-1 distributed optimizer");
      }
      break;
  }
  return OkStatus();
}

std::vector<ParallelStrategy> EnumerateStrategies(
    SystemKind system, const model::ModelConfig& model,
    const hw::ClusterSpec& cluster, std::int64_t seq) {
  std::vector<ParallelStrategy> result;
  const int gpus = cluster.total_gpus();
  auto emit = [&](ParallelStrategy s) {
    if (ValidateStrategy(system, s, model, cluster, seq).ok()) {
      result.push_back(s);
    }
  };

  if (system == SystemKind::kDeepSpeed) {
    for (int sp = 1; sp <= gpus; sp *= 2) {
      if (gpus % sp != 0) continue;
      ParallelStrategy s = SystemRecipe(system);
      s.ulysses_sp = sp;
      s.dp = gpus / sp;
      emit(s);
    }
    return result;
  }

  for (int tp = 1; tp <= cluster.node.gpus_per_node; tp *= 2) {
    if (gpus % tp != 0) continue;
    for (int cp = 1; cp * tp <= gpus; cp *= 2) {
      if (gpus % (tp * cp) != 0) continue;
      for (int pp = 1; pp * tp * cp <= gpus; pp *= 2) {
        if (gpus % (tp * cp * pp) != 0) continue;
        ParallelStrategy s = SystemRecipe(system);
        s.tp = tp;
        s.cp = cp;
        s.pp = pp;
        s.dp = gpus / (tp * cp * pp);
        emit(s);
      }
    }
  }
  return result;
}

}  // namespace memo::parallel
