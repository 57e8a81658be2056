// Convergence demo: trains the numeric mini-GPT twice — once with the
// Megatron-style retain-all activation policy and once with MEMO's
// token-wise offload/recompute at a user-chosen alpha — and prints the two
// loss curves side by side. Because token-wise recomputation replays the
// exact row-wise kernels, the curves are bit-identical (the §5.5 claim).
//
// Usage: convergence_demo [alpha] [iterations]   (defaults 0.25, 200)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table_printer.h"
#include "common/units.h"
#include "train/trainer.h"

int main(int argc, char** argv) {
  const double alpha = argc > 1 ? std::atof(argv[1]) : 0.25;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 200;

  memo::train::TrainRunOptions options;
  // Four layers: the last two stay in the rounding buffers (§4.1), so the
  // first two are the ones that swap and recompute.
  options.model.layers = 4;
  options.model.hidden = 32;
  options.model.heads = 4;
  options.model.ffn = 128;
  options.model.vocab = 64;
  options.model.seq = 64;
  options.iterations = iterations;
  options.seed = 7;

  std::printf("mini-GPT: %d layers, hidden %d, %d heads, vocab %d, seq %d\n"
              "policy A: retain-all (baseline); policy B: token-wise, "
              "alpha = %.3f\n\n",
              options.model.layers, options.model.hidden, options.model.heads,
              options.model.vocab, options.model.seq, alpha);

  options.policy = memo::train::ActivationPolicy::kRetainAll;
  const auto baseline = memo::train::RunTraining(options);

  options.policy = memo::train::ActivationPolicy::kTokenWise;
  options.alpha = alpha;
  const auto tokenwise = memo::train::RunTraining(options);

  // Same policy again with the copier thread doing the offload/prefetch
  // copies concurrently with compute — the copies are exact, so this run
  // must land on the same curve bit for bit.
  options.async_offload = true;
  const auto async_run = memo::train::RunTraining(options);

  memo::TablePrinter table({"iter", "baseline loss", "token-wise loss",
                            "difference"});
  for (int i = 0; i < iterations; i += std::max(1, iterations / 20)) {
    table.AddRow({std::to_string(i),
                  memo::StrFormat("%.6f", baseline.losses[i]),
                  memo::StrFormat("%.6f", tokenwise.losses[i]),
                  memo::StrFormat("%g", tokenwise.losses[i] -
                                            baseline.losses[i])});
  }
  table.Print(std::cout);

  bool identical = baseline.losses == tokenwise.losses &&
                   baseline.losses == async_run.losses;
  std::printf("\ncurves bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("token rows recomputed: %lld; activation bytes stored: %s "
              "(vs %s retained by the baseline)\n",
              static_cast<long long>(tokenwise.recomputed_rows),
              memo::FormatBytes(tokenwise.peak_stored_bytes).c_str(),
              memo::FormatBytes(baseline.peak_stored_bytes).c_str());
  const auto& st = async_run.offload_stats;
  std::printf("async copier: %s offloaded, %s prefetched, %.1fms busy, "
              "%.1f%% overlapped with compute\n",
              memo::FormatBytes(st.offloaded_bytes).c_str(),
              memo::FormatBytes(st.prefetched_bytes).c_str(),
              st.copier_busy_seconds * 1e3,
              st.overlap_efficiency() * 100.0);
  return identical ? 0 : 1;
}
