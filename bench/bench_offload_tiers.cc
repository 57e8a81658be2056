// Sweeps the RAM capacity of the activation-stash hierarchy: the same
// mini-GPT training run executes with an unlimited RAM stash, then with the
// tiered (RAM + disk spill) backend at shrinking RAM caps down to a
// disk-only configuration. Two claims are checked numerically:
//
//   1. the final loss is BIT-IDENTICAL across all configurations — spilled
//      pages round-trip exactly (checksummed), so where the RAM-only seed
//      system aborted with kOutOfHostMemory, the tiered stash degrades to
//      disk bandwidth without touching convergence (Fig. 12d invariant);
//   2. the per-tier counters account for every offloaded byte: bytes that
//      leave the RAM tier reappear as spill pages in the disk tier.
//
// A second section runs the iteration simulator with an NVMe spill tier
// configured, sweeping the host-RAM share down to a starved host: the
// tiered alpha LP routes what RAM cannot hold to disk, so every host size
// still trains, and the smallest one spills.
//
// Emits BENCH_offload_tiers.json (schema v3; `aux` carries the disk share
// of the stashed bytes for the trainer rows and the LP's alpha_disk for the
// simulator rows). `--smoke` runs a shrunken sweep, skips the JSON, and
// enforces the same contracts as hard exit-code failures.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/plan_request.h"
#include "train/trainer.h"

namespace {

memo::train::TrainRunOptions BaseRun(int iterations) {
  memo::train::TrainRunOptions o;
  // Four layers, so two swap (the last two stay in the rounding buffers)
  // and the RAM-cap sweep can split one step's stash across the tiers.
  o.model.layers = 4;
  o.model.hidden = 32;
  o.model.heads = 4;
  o.model.ffn = 128;
  o.model.vocab = 64;
  o.model.seq = 96;
  o.iterations = iterations;
  o.seed = 20240607;
  o.policy = memo::train::ActivationPolicy::kTokenWise;
  o.alpha = 0.5;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using memo::train::RunTraining;
  using memo::train::TrainRunResult;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int iterations = smoke ? 12 : 60;

  std::printf(
      "Offload tier sweep: mini-GPT (4x32x4 heads, seq 96), %d iterations,\n"
      "token-wise alpha=0.5, stash RAM capacity shrinking to 0\n\n",
      iterations);

  memo::train::TrainRunOptions reference_options = BaseRun(iterations);
  double reference_ms = 0.0;
  TrainRunResult reference;
  reference_ms = memo::bench::BestWallMs(
      1, [&] { reference = RunTraining(reference_options); });

  // Per-sequence stash footprint (one store per sequence): cap the RAM tier
  // at fractions of the observed peak so the tail of each forward pass
  // spills.
  const std::int64_t peak = reference.peak_stored_bytes;
  struct Config {
    const char* name;
    double ram_fraction;  // of the observed peak stash bytes; <0 = unlimited
  };
  const Config configs[] = {
      {"ram_unlimited", -1.0}, {"tiered_75pct", 0.75}, {"tiered_50pct", 0.5},
      {"tiered_25pct", 0.25},  {"disk_only", 0.0},
  };

  memo::TablePrinter table({"backend", "RAM cap", "final loss", "bit-equal",
                            "RAM put", "disk put", "spill pages", "wall ms"});
  std::vector<memo::bench::BenchRecord> records;
  bool all_equal = true;
  for (const Config& config : configs) {
    memo::train::TrainRunOptions o = BaseRun(iterations);
    std::int64_t cap = 0;
    if (config.ram_fraction < 0.0) {
      o.backend.kind = memo::offload::BackendKind::kRam;
    } else if (config.ram_fraction == 0.0) {
      // A tiered backend with capacity 0 would mean *unlimited* RAM; the
      // pure disk backend is the honest zero-RAM configuration.
      o.backend.kind = memo::offload::BackendKind::kDisk;
    } else {
      o.backend.kind = memo::offload::BackendKind::kTiered;
      cap = static_cast<std::int64_t>(config.ram_fraction *
                                      static_cast<double>(peak));
      o.backend.ram_capacity_bytes = cap;
    }
    TrainRunResult result;
    const double ms =
        memo::bench::BestWallMs(1, [&] { result = RunTraining(o); });

    const bool equal = result.losses == reference.losses;
    all_equal = all_equal && equal;
    const auto& stats = result.offload_stats;
    const std::int64_t stashed =
        stats.ram_tier.put_bytes + stats.disk_tier.put_bytes;
    table.AddRow(
        {config.name,
         config.ram_fraction < 0.0 ? "unlimited" : memo::FormatBytes(cap),
         memo::StrFormat("%.6f", result.losses.back()),
         equal ? "yes" : "NO",
         memo::FormatBytes(stats.ram_tier.put_bytes),
         memo::FormatBytes(stats.disk_tier.put_bytes),
         std::to_string(stats.disk_tier.spill_pages),
         memo::StrFormat("%.1f", ms)});

    memo::bench::BenchRecord record;
    record.op = config.name;
    record.threads = 1;
    record.wall_ms = ms;
    record.speedup_vs_serial = ms > 0.0 ? reference_ms / ms : 1.0;
    record.aux = stashed > 0 ? static_cast<double>(stats.disk_tier.put_bytes) /
                                   static_cast<double>(stashed)
                             : 0.0;
    record.aux_label = "disk_share";
    records.push_back(record);
  }
  table.Print(std::cout);
  std::printf("\nloss curves bit-identical across all tiers: %s\n\n",
              all_equal ? "yes" : "NO");

  // ---- Simulator: host-RAM sweep with an NVMe tier configured. The
  // single-tier LP aborts with X_oohm once the always-offloaded bytes exceed
  // the host share; the tiered LP routes the overflow to disk instead.
  std::printf(
      "Simulator: 7B model, seq 512K, 8 GPUs, NVMe tier 4 TiB @ 6 GB/s\n\n");
  bool all_hosts_train = true;
  bool starved_host_spills = false;
  const auto model = memo::model::ModelByName("7B");
  if (model.ok()) {
    memo::TablePrinter sim_table({"host GiB/node", "strategy", "alpha",
                                  "alpha RAM", "alpha disk", "RAM/GPU",
                                  "disk/GPU", "disk busy", "iter time"});
    const std::vector<double> hosts =
        smoke ? std::vector<double>{512.0, 32.0}
              : std::vector<double>{2048.0, 512.0, 128.0, 32.0};
    for (const double host_gib : hosts) {
      memo::core::PlanRequest request;
      request.model = *model;
      request.seq = 512 * memo::kSeqK;
      request.cluster = memo::hw::PaperCluster(8);
      request.cluster.node.host_memory_bytes = static_cast<std::int64_t>(
          host_gib * static_cast<double>(memo::kGiB));
      request.cluster.node.nvme_bytes = 4 * memo::kTiB;
      request.cluster.node.nvme_bandwidth = 6.0 * memo::kGBps;
      const memo::core::PlanResult best =
          memo::core::ExecutePlanRequest(request);
      if (!best.status.ok()) {
        all_hosts_train = false;
        sim_table.AddRow({memo::StrFormat("%.0f", host_gib),
                          best.status.ToString(), "-", "-", "-", "-", "-",
                          "-", "-"});
        continue;
      }
      const memo::core::IterationResult& it = best.best;
      if (host_gib == hosts.back() && it.host_disk_bytes > 0) {
        starved_host_spills = true;
      }
      sim_table.AddRow({memo::StrFormat("%.0f", host_gib),
                        it.strategy.ToString(),
                        memo::StrFormat("%.3f", it.alpha),
                        memo::StrFormat("%.3f", it.alpha_ram),
                        memo::StrFormat("%.3f", it.alpha_disk),
                        memo::FormatBytes(it.host_ram_bytes),
                        memo::FormatBytes(it.host_disk_bytes),
                        memo::FormatSeconds(it.disk_busy_seconds),
                        memo::FormatSeconds(it.iteration_seconds)});
      memo::bench::BenchRecord record;
      record.op = memo::StrFormat("sim_host%.0fgib", host_gib);
      record.threads = 1;
      record.wall_ms = it.iteration_seconds * 1000.0;
      record.aux = it.alpha_disk;
      record.aux_label = "alpha_disk";
      records.push_back(record);
    }
    sim_table.Print(std::cout);
    std::printf("\nevery host size trains with the NVMe tier: %s\n",
                all_hosts_train ? "yes" : "NO");
    std::printf("the starved host spills to disk: %s\n",
                starved_host_spills ? "yes" : "NO");
  }

  if (!smoke) {
    if (!memo::bench::WriteBenchJson("BENCH_offload_tiers.json", records)) {
      std::fprintf(stderr, "cannot write BENCH_offload_tiers.json\n");
      return 1;
    }
    std::printf("\nwrote BENCH_offload_tiers.json (%zu records)\n",
                records.size());
  }
  const bool ok = all_equal && all_hosts_train && starved_host_spills;
  if (!ok) std::printf("\ncontract FAILED\n");
  return ok ? 0 : 1;
}
