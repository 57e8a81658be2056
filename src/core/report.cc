#include "core/report.h"

#include "common/units.h"

namespace memo::core {

TablePrinter IterationReportTable(const IterationResult& result,
                                  const model::ModelConfig& model) {
  TablePrinter table({"quantity", "value"});
  table.AddRow({"model", StrFormat("%s (%.2fB params)", model.name.c_str(),
                                   model.num_parameters() / 1e9)});
  table.AddRow({"strategy", result.strategy.ToString()});
  table.AddRow({"swap fraction alpha", StrFormat("%.3f", result.alpha)});
  table.AddRow({"MFU", StrFormat("%.2f%%", result.metrics.mfu * 100.0)});
  table.AddRow({"tokens/GPU/s", StrFormat("%.2f", result.metrics.tgs)});
  table.AddRow({"iteration time", FormatSeconds(result.iteration_seconds)});
  table.AddRow({"model states / GPU", FormatBytes(result.model_state_bytes)});
  table.AddRow({"rounding buffers / GPU", FormatBytes(result.buffer_bytes)});
  table.AddRow(
      {"activation arena / peak", FormatBytes(result.activation_peak_bytes)});
  table.AddRow({"peak device memory", FormatBytes(result.peak_device_bytes)});
  table.AddRow(
      {"host offload / GPU", FormatBytes(result.host_offload_bytes)});
  table.AddRow({"host RAM tier / GPU",
                StrFormat("%s (alpha %.3f)",
                          FormatBytes(result.host_ram_bytes).c_str(),
                          result.alpha_ram)});
  table.AddRow({"disk spill tier / GPU",
                StrFormat("%s (alpha %.3f)",
                          FormatBytes(result.host_disk_bytes).c_str(),
                          result.alpha_disk)});
  if (result.disk_busy_seconds > 0.0) {
    table.AddRow(
        {"disk spill stream busy", FormatSeconds(result.disk_busy_seconds)});
  }
  table.AddRow(
      {"redundant recompute time", FormatSeconds(result.recompute_seconds)});
  table.AddRow(
      {"exposed communication", FormatSeconds(result.exposed_comm_seconds)});
  table.AddRow(
      {"compute stalled on PCIe", FormatSeconds(result.swap_stall_seconds)});
  table.AddRow({"copy/compute overlap",
                StrFormat("%.1f%% of %s hidden",
                          result.overlap_efficiency * 100.0,
                          FormatSeconds(result.copy_busy_seconds).c_str())});
  table.AddRow(
      {"copy streams idle", FormatSeconds(result.copy_idle_seconds)});
  table.AddRow({"allocator reorganizations",
                std::to_string(result.reorg_events) + " (" +
                    FormatSeconds(result.reorg_stall_seconds) + ")"});
  return table;
}

std::string FormatIterationReport(const IterationResult& result,
                                  const model::ModelConfig& model) {
  return IterationReportTable(result, model).ToString();
}

}  // namespace memo::core
