// Micro-benchmark: aggregation memory model — the replay→report hot
// loop after the symbol-table/flat-map refactor.
//
// A harness binary (not google-benchmark): the warm-observe subject is
// a whole persistent study, and the numbers feed the perf trajectory as
// machine-readable JSON through JsonMetrics
// (`ADSCOPE_JSON_DIR=... -> BENCH_aggregate.json`).
//
// Stages measured (best of ADSCOPE_REPS):
//   warm_observe    persistent TraceStudy fed a warm mmap replay —
//                   the allocation-free steady state pinned down by
//                   tests/test_study_alloc.cpp (flush_epoch between
//                   passes; symbols interned, pools at watermark)
//   replay_report   cold study: mmap replay -> finish -> full report
//
// warm_observe is the end-to-end number the refactor bought;
// replay_report is reported for the honest Amdahl view (report
// rendering and decode share the wall clock). The per-stage split of
// the aggregation cost on real traces is perfbench's
// core.aggregate_self_ns_per_rec.
//
//   ADSCOPE_HOUSEHOLDS  trace scale    (default 40 subscribers)
//   ADSCOPE_HOURS       trace duration (default 4)
//   ADSCOPE_REPS        repetitions    (default 5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "experiment_common.h"
#include "trace/mmap_reader.h"
#include "trace/writer.h"

namespace {

using namespace adscope;
using Clock = std::chrono::steady_clock;

/// Best-of-N wall time of `body`, in seconds.
template <typename Body>
double best_of(int reps, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    best = std::min(best, wall);
  }
  return best;
}

}  // namespace

int main() {
  bench::preamble(
      "micro: aggregation (symbol tables + flat maps)",
      "n/a — memory model of the replay→report hot loop");

  const auto world = bench::make_world();
  const auto reps = static_cast<int>(bench::env_u64("ADSCOPE_REPS", 5));
  const auto path = std::string("/tmp/adscope_bench_aggregate.adst");

  // Corpus: the bench_micro_pipeline trace (RBN-2, 40 households, 4 h).
  trace::MemoryTrace corpus;
  {
    sim::RbnSimulator simulator(world.ecosystem, world.lists, world.seed);
    auto options = sim::rbn2_options(static_cast<std::uint32_t>(
        bench::env_u64("ADSCOPE_HOUSEHOLDS", 40)));
    options.duration_s = bench::env_u64("ADSCOPE_HOURS", 4) * 3600;
    simulator.simulate(options, corpus);
    trace::FileTraceWriter writer(path);
    corpus.replay(writer);
    writer.close();
  }
  const auto records =
      static_cast<double>(corpus.http().size() + corpus.tls().size());
  std::printf("corpus: %.0f records (%zu http, %zu tls)\n\n", records,
              corpus.http().size(), corpus.tls().size());

  // --- warm replay -> observe ----------------------------------------
  // Study and reader persist: after the cold pass every symbol is
  // interned, every pool slot sits at its watermark, and the measured
  // passes run the allocation-free fixed point.
  trace::MmapTraceReader mapped(path);
  core::TraceStudy warm_study(world.engine, world.ecosystem.abp_registry());
  mapped.replay(warm_study);  // cold pass
  const double warm_observe = best_of(reps, [&] {
    warm_study.flush_epoch();  // same trace again = new epoch
    mapped.replay(warm_study);
  });

  // --- cold replay -> report -----------------------------------------
  std::size_t report_size = 0;  // keeps the render from being elided
  const double replay_report = best_of(reps, [&] {
    core::StudyOptions options;
    options.inference.min_requests = 300;
    core::TraceStudy study(world.engine, world.ecosystem.abp_registry(),
                           options);
    mapped.replay(study);
    study.finish();
    const auto report =
        core::render_full_report(study.view(), &world.ecosystem.asn_db());
    report_size = report.size();
  });

  const auto per_record_ns = [&](double wall) { return wall / records * 1e9; };

  std::printf("stage                      ns/record\n");
  std::printf("warm  replay -> observe    %9.1f\n", per_record_ns(warm_observe));
  std::printf("cold  replay -> report     %9.1f\n",
              per_record_ns(replay_report));
  std::printf("\nreport bytes: %zu\n", report_size);

  bench::JsonMetrics metrics("aggregate");
  metrics.record("records", records);
  metrics.record("warm_observe_ns_per_record", per_record_ns(warm_observe));
  metrics.record("replay_report_ns_per_record", per_record_ns(replay_report));
  std::remove(path.c_str());
  return 0;
}
