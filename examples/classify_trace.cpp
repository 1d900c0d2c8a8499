// classify_trace — the ISP-operator scenario: study ad traffic in a
// captured header trace (the paper's §7 analysis as a CLI tool).
//
// Usage: ./classify_trace [trace.adst] [--threads N]
// Without a trace argument, a small demo trace is synthesized first so
// the example runs out of the box. --threads N shards the analysis by
// client IP across N workers (core::ParallelTraceStudy); the printed
// numbers are identical either way. A malformed N is a usage error
// (exit 2); one above the thread ceiling exits 1.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "core/parallel_study.h"
#include "core/study.h"
#include "sim/crawl_sim.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/cli_args.h"
#include "util/format.h"
#include "util/thread_pool.h"

using namespace adscope;

namespace {
constexpr const char* kUsage =
    "usage: classify_trace [trace.adst] [--threads N]\n";
}  // namespace

int main(int argc, char** argv) try {
  std::string path;
  std::size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) throw cli::UsageError("--threads expects a value");
      threads = cli::parse_u64("threads", argv[++i]);
    } else {
      path = arg;
    }
  }
  util::resolve_thread_count(threads);  // the ceiling, before any work

  // World setup: ecosystem (for list generation + AS mapping) and the
  // analysis engine with all four lists, as in the paper.
  const auto ecosystem = sim::Ecosystem::generate(42);
  const auto lists = sim::generate_lists(ecosystem);
  const auto engine = sim::make_engine(
      lists, sim::ListSelection{.easylist = true,
                                .derivative = true,
                                .easyprivacy = true,
                                .acceptable_ads = true});

  if (path.empty()) {
    path = "/tmp/adscope_demo_trace.adst";
    std::printf("no trace given; synthesizing a demo RBN trace at %s ...\n",
                path.c_str());
    trace::FileTraceWriter writer(path);
    sim::RbnSimulator simulator(ecosystem, lists, /*seed=*/42);
    auto options = sim::rbn2_options(/*households=*/60);
    options.duration_s = 6 * 3600;
    simulator.simulate(options, writer);
  }

  trace::FileTraceReader reader(path);
  std::unique_ptr<core::TraceStudy> serial;
  std::unique_ptr<core::ParallelTraceStudy> parallel;
  std::uint64_t records = 0;
  core::StudyView view;
  if (threads > 1) {
    core::ParallelStudyOptions options;
    options.threads = threads;
    parallel = std::make_unique<core::ParallelTraceStudy>(
        engine, ecosystem.abp_registry(), options);
    records = reader.replay(*parallel);
    parallel->finish();
    view = parallel->view();
    std::printf("(analyzed on %zu shard threads)\n", parallel->shard_count());
  } else {
    serial = std::make_unique<core::TraceStudy>(engine,
                                                ecosystem.abp_registry());
    records = reader.replay(*serial);
    serial->finish();
    view = serial->view();
  }

  const auto& traffic = *view.traffic;
  std::printf("\n=== trace '%s': %llu records ===\n", view.meta->name.c_str(),
              static_cast<unsigned long long>(records));
  std::printf("HTTP transactions: %llu (%s)\n",
              static_cast<unsigned long long>(traffic.requests()),
              util::human_bytes(static_cast<double>(traffic.bytes())).c_str());
  const double ads = static_cast<double>(traffic.ad_requests());
  std::printf("ad requests:       %llu (%s of requests, %s of bytes)\n",
              static_cast<unsigned long long>(traffic.ad_requests()),
              util::percent(ads / static_cast<double>(traffic.requests()))
                  .c_str(),
              util::percent(static_cast<double>(traffic.ad_bytes()) /
                            static_cast<double>(traffic.bytes()))
                  .c_str());
  std::printf("  EasyList:        %s\n",
              util::percent(static_cast<double>(traffic.easylist_requests()) /
                            ads)
                  .c_str());
  std::printf("  EasyPrivacy:     %s\n",
              util::percent(static_cast<double>(traffic.easyprivacy_requests()) /
                            ads)
                  .c_str());
  std::printf("  non-intrusive:   %s\n",
              util::percent(static_cast<double>(traffic.whitelisted_requests()) /
                            ads)
                  .c_str());

  std::printf("\ntop ad-serving ASes:\n");
  for (const auto& row : view.infra->as_ranking(ecosystem.asn_db(), 5)) {
    std::printf("  %-12s %8llu ad objects (%s of its traffic)\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.ad_requests),
                util::percent(static_cast<double>(row.ad_requests) /
                              static_cast<double>(row.total_requests))
                    .c_str());
  }

  std::printf("\nRTB signal: %s of ad requests show >=90 ms hand-shake "
              "inflation (vs %s of the rest)\n",
              util::percent(view.rtb->ad_share_in_rtb_regime()).c_str(),
              util::percent(view.rtb->non_ad_share_in_rtb_regime()).c_str());
  return 0;
} catch (const cli::UsageError& error) {
  std::fprintf(stderr, "classify_trace: %s\n%s", error.what(), kUsage);
  return 2;
} catch (const std::exception& error) {
  std::fprintf(stderr, "classify_trace: %s\n", error.what());
  return 1;
}
