// perfbench — one run of one workload.
//
//   perfbench --workload study-serial|study-sharded|query-serve
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a header (seed, input size, nproc, build type, SIMD level, net
// backend), informational "# ..." lines, and as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// untraced run reports the end-to-end metrics, the traced run the
// per-layer ones (0 where a layer does not run in the workload) and
// writes its spans to DIR/spans/<workload>-s<seed>.jsonl. A failed
// output check still prints the result (correct: false, every
// operation failed) and exits 1; any other error exits 2 without one.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "util/net_backend.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Every per-layer metric a traced run prints (BENCHMARK.json
/// "per_layer"), with its unit.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"sim.world_build_ms", "ms"},
      {"adblock.engine_build_ms", "ms"},
      {"trace.decode_ns_per_rec", "ns"},
      {"trace.stream_decode_ns_per_rec", "ns"},
      {"analyzer.extract_ns_per_rec", "ns"},
      {"core.classify_ns_per_obj", "ns"},
      {"core.attribution_self_ns_per_obj", "ns"},
      {"core.redirects_patched_per_kobj", "1/kobj"},
      {"core.redirects_expired_per_kobj", "1/kobj"},
      {"core.classify_cache_hit_ratio", "ratio"},
      {"adblock.classify_ns_per_call", "ns"},
      {"adblock.calls_per_rec", "calls"},
      {"core.study_ns_per_rec", "ns"},
      {"core.aggregate_self_ns_per_rec", "ns"},
      {"core.finish_ms", "ms"},
      {"core.render_ms", "ms"},
      {"shard.feed_ns_per_rec", "ns"},
      {"shard.feeder_busy_ratio", "ratio"},
      {"shard.worker_busy_ratio_max", "ratio"},
      {"shard.worker_busy_ratio_min", "ratio"},
      {"shard.finish_ms", "ms"},
      {"live.ingest_block_ratio", "ratio"},
      {"live.queue_depth_p50", "records"},
      {"live.store_ingest_ms_p50", "ms"},
      {"live.buckets_sealed", "count"},
      {"live.records_dropped", "count"},
      {"store.query_ms_p50", "ms"},
      {"store.cache_hit_ratio", "ratio"},
      {"http.handle_us_p50", "us"},
      {"http.wire_overhead_us_p50", "us"},
      {"http.not_modified_ratio", "ratio"},
      {"http.connections_rejected", "count"},
      {"bench.gen_late_ms_p99", "ms"},
      {"bench.unattributed_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

const char* kEndToEnd[] = {"setup_s",        "throughput_rps", "cpu_us_per_op",
                           "peak_rss_mb",    "latency_ms",     "latency_tail_ms",
                           "result_lag_ms"};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || args.seconds <= 0) return std::nullopt;
  return args;
}

int run(const Args& args) {
  using Runner = void (*)(const Args&, const Inputs&, Tracer&, Result&);
  Runner runner = nullptr;
  if (args.workload == "study-serial") runner = run_study_serial;
  if (args.workload == "study-sharded") runner = run_study_sharded;
  if (args.workload == "query-serve") runner = run_query_serve;
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const auto inputs = prepare_inputs(args);
  std::string net_note;
  const auto net = util::resolve_net_backend(std::nullopt, &net_note);
  info("perfbench %s seed=%llu records=%llu (http %llu, tls %llu) "
       "wire_bytes=%llu nproc=%ld build=%s simd=%s net=%s%s%s trace=%d",
       args.workload.c_str(), static_cast<unsigned long long>(args.seed),
       static_cast<unsigned long long>(inputs.records()),
       static_cast<unsigned long long>(inputs.http_records),
       static_cast<unsigned long long>(inputs.tls_records),
       static_cast<unsigned long long>(inputs.wire_bytes),
       sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
       util::simd::to_string(util::simd::active_level()),
       util::to_string(net), net_note.empty() ? "" : " ", net_note.c_str(),
       args.trace ? 1 : 0);

  Tracer tracer;
  Result result;
  if (args.trace) {
    // Layers that do not run in this workload report 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      result.set(name, 0, unit);
    }
  }
  runner(args, inputs, tracer, result);

  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      if (!result.metrics.contains(name)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
        return 2;
      }
    }
  } else {
    const auto dir = std::filesystem::path(args.work_dir) / "spans";
    std::filesystem::create_directories(dir);
    const auto path =
        dir / (args.workload + "-s" + std::to_string(args.seed) + ".jsonl");
    if (!tracer.write_jsonl(path.string())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    } else {
      info("spans -> %s", path.c_str());
    }
  }
  info("failed_ratio=%.6f (%llu failed of %llu attempted)",
       result.correct ? static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)
                      : 1.0,
       static_cast<unsigned long long>(result.failed),
       static_cast<unsigned long long>(result.attempted));
  if (result.attempted == 0) result.attempted = 1;
  print_result(result);
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fputs(
        "usage: perfbench --workload study-serial|study-sharded|query-serve "
        "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
        stderr);
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
