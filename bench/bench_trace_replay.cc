// Trace-format and replay-engine benchmark. Measures the compact binary
// codec (encode/decode MB/s over a realistic multi-iteration workload),
// the binary-vs-JSON size ratio, and replay throughput, and writes them as
// BenchRecord rows to BENCH_trace_replay.json.
//
// `--smoke` shrinks the workload and enforces the format's contracts as
// hard exit-code checks (the bench-smoke ctest leg):
//   * decode(encode(w)) == w and re-encode is bit-exact,
//   * compressed binary is >= 5x smaller than the verbose JSON form,
//   * replaying the same workload twice gives byte-identical summaries.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "model/model_config.h"
#include "model/trace_gen.h"
#include "trace/convert.h"
#include "trace/replay.h"
#include "trace/trace_io.h"

namespace {

using memo::bench::BestWallMs;

double MbPerSec(std::size_t bytes, double wall_ms) {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) /
         (wall_ms / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  memo::model::ModelConfig config;
  config.name = "bench";
  config.num_layers = smoke ? 2 : 8;
  config.hidden = smoke ? 256 : 1024;
  config.ffn_hidden = 4 * config.hidden;
  config.num_heads = smoke ? 4 : 16;
  config.vocab = smoke ? 512 : 8192;

  memo::model::TraceGenOptions base;
  base.seq_local = smoke ? 1024 : 8192;
  memo::model::WorkloadGenOptions gen;
  gen.iterations = smoke ? 3 : 16;
  gen.seed = 7;
  gen.seq_local_min = base.seq_local / 2;
  gen.seq_local_max = base.seq_local * 2;

  const memo::model::WorkloadTrace workload =
      memo::model::GenerateVariableLengthWorkload(config, base, gen);
  const int reps = smoke ? 2 : 5;

  // Encode (compressed) throughput. Raw input volume is what the producer
  // hands the writer: record_count * record width.
  std::string encoded;
  const double encode_ms = BestWallMs(
      reps, [&] { encoded = memo::trace::EncodeWorkload(workload); });
  const std::size_t raw_bytes =
      workload.TotalRequests() * memo::trace::kAllocRecordBytes;

  // Decode throughput over the same buffer.
  memo::model::WorkloadTrace decoded;
  const double decode_ms = BestWallMs(reps, [&] {
    auto reader = memo::trace::TraceReader::OpenBuffer(encoded);
    if (!reader.ok()) {
      std::fprintf(stderr, "decode open failed: %s\n",
                   reader.status().ToString().c_str());
      std::exit(1);
    }
    auto result = memo::trace::ReadWorkload(*reader);
    if (!result.ok()) {
      std::fprintf(stderr, "decode failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    decoded = std::move(result).value();
  });

  // Size ratio against the verbose JSON form.
  const std::string json = memo::trace::WorkloadToJson(workload);
  const double size_ratio =
      static_cast<double>(json.size()) / static_cast<double>(encoded.size());

  // Replay throughput (requests/s through the shared-allocator engine).
  memo::trace::ReplayOptions replay_options;
  replay_options.run_planner = false;  // isolate the allocator path
  std::string summary_json;
  const double replay_ms = BestWallMs(reps, [&] {
    summary_json =
        memo::trace::ReplayWorkload(workload, replay_options).ToJson();
  });
  const double replay_rps =
      replay_ms > 0.0
          ? static_cast<double>(workload.TotalRequests()) /
                (replay_ms / 1000.0)
          : 0.0;

  // Contract checks (hard failures under --smoke, reported always).
  const bool roundtrip_ok =
      memo::trace::EncodeWorkload(decoded) == encoded;
  const std::string summary_again =
      memo::trace::ReplayWorkload(workload, replay_options).ToJson();
  const bool replay_deterministic = summary_again == summary_json;

  std::printf("trace bench (%s): %zu iterations, %zu requests\n",
              smoke ? "smoke" : "full", workload.iterations.size(),
              workload.TotalRequests());
  std::printf("  encode  %8.2f MB/s (%zu B binary from %zu B of records)\n",
              MbPerSec(raw_bytes, encode_ms), encoded.size(), raw_bytes);
  std::printf("  decode  %8.2f MB/s\n", MbPerSec(raw_bytes, decode_ms));
  std::printf("  size    %.2fx smaller than JSON (%zu B)\n", size_ratio,
              json.size());
  std::printf("  replay  %8.0f requests/s\n", replay_rps);
  std::printf("  roundtrip_bit_exact=%s replay_deterministic=%s\n",
              roundtrip_ok ? "true" : "false",
              replay_deterministic ? "true" : "false");

  // wall_ms is the best-of-reps time; aux carries the row's rate, or the
  // JSON-over-binary size ratio for the (untimed) size row.
  const auto row = [](const char* op, double wall_ms, double aux,
                      const char* aux_label) {
    memo::bench::BenchRecord record;
    record.op = op;
    record.wall_ms = wall_ms;
    record.aux = aux;
    record.aux_label = aux_label;
    return record;
  };
  const std::vector<memo::bench::BenchRecord> records = {
      row("trace_encode", encode_ms, MbPerSec(raw_bytes, encode_ms),
          "mb_per_s"),
      row("trace_decode", decode_ms, MbPerSec(raw_bytes, decode_ms),
          "mb_per_s"),
      row("trace_replay", replay_ms, replay_rps, "requests_per_s"),
      row("trace_size", 0.0, size_ratio, "json_over_binary"),
  };
  const char* path = "BENCH_trace_replay.json";
  if (!memo::bench::WriteBenchJson(path, records)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %s\n", path);

  if (!roundtrip_ok) {
    std::fprintf(stderr, "FAIL: re-encode is not bit-exact\n");
    return 1;
  }
  if (!replay_deterministic) {
    std::fprintf(stderr, "FAIL: replay summary is not deterministic\n");
    return 1;
  }
  if (smoke && size_ratio < 5.0) {
    std::fprintf(stderr, "FAIL: size ratio %.2f < 5.0\n", size_ratio);
    return 1;
  }
  return 0;
}
