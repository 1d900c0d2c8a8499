// adblock_detector — the paper's §6 use case as a tool: infer which end
// users behind a residential vantage point run an ad-blocker, from
// header traces alone.
//
// Synthesizes an RBN trace with known ground truth, runs the two-
// indicator inference, prints per-class summaries and a confusion matrix
// against the simulator's ground truth.
//
// Usage: ./adblock_detector [--threads N]  — N>1 shards the analysis by
// client IP (core::ParallelTraceStudy); the inference is identical. A
// malformed N is a usage error (exit 2); one above the thread ceiling
// exits 1.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/parallel_study.h"
#include "core/study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "util/cli_args.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/thread_pool.h"

using namespace adscope;

namespace {
constexpr const char* kUsage = "usage: adblock_detector [--threads N]\n";
}  // namespace

int main(int argc, char** argv) try {
  std::size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      if (i + 1 >= argc) throw cli::UsageError("--threads expects a value");
      threads = cli::parse_u64("threads", argv[++i]);
    }
  }
  util::resolve_thread_count(threads);  // the ceiling, before any work

  const auto ecosystem = sim::Ecosystem::generate(42);
  const auto lists = sim::generate_lists(ecosystem);
  const auto engine = sim::make_engine(
      lists, sim::ListSelection{.easylist = true,
                                .derivative = true,
                                .easyprivacy = true,
                                .acceptable_ads = true});

  std::printf("simulating a residential network (this takes a few "
              "seconds)...\n");
  core::StudyOptions options;
  options.inference.min_requests = 500;
  sim::RbnSimulator simulator(ecosystem, lists, /*seed=*/42);
  sim::RbnStats truth;
  core::InferenceResult inference;  // holds pointers into the live study
  std::unique_ptr<core::TraceStudy> serial;
  std::unique_ptr<core::ParallelTraceStudy> parallel;
  if (threads > 1) {
    core::ParallelStudyOptions parallel_options;
    parallel_options.study = options;
    parallel_options.threads = threads;
    parallel = std::make_unique<core::ParallelTraceStudy>(
        engine, ecosystem.abp_registry(), parallel_options);
    truth = simulator.simulate(sim::rbn2_options(250), *parallel);
    parallel->finish();
    inference = parallel->view().inference();
    std::printf("(analyzed on %zu shard threads)\n", parallel->shard_count());
  } else {
    serial = std::make_unique<core::TraceStudy>(engine,
                                                ecosystem.abp_registry(),
                                                options);
    truth = simulator.simulate(sim::rbn2_options(250), *serial);
    serial->finish();
    inference = serial->inference();
  }
  std::printf("\nactive browsers (>%llu requests): %zu\n",
              static_cast<unsigned long long>(options.inference.min_requests),
              inference.active_browsers.size());
  for (std::size_t c = 0; c < 4; ++c) {
    const auto& row = inference.classes[c];
    std::printf("  class %c: %4llu instances, %6llu ad requests\n",
                core::to_char(static_cast<core::IndicatorClass>(c)),
                static_cast<unsigned long long>(row.instances),
                static_cast<unsigned long long>(row.ad_requests));
  }

  // Confusion matrix: inference (type C = "likely Adblock Plus") vs the
  // simulator's ground truth.
  std::unordered_map<std::uint64_t, bool> truly_abp;
  for (const auto& browser : truth.truth) {
    truly_abp[util::hash_combine(util::fnv1a_u64(browser.ip),
                                 util::fnv1a(browser.user_agent))] =
        browser.blocker == sim::BlockerKind::kAdblockPlus;
  }
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t fn = 0;
  std::uint64_t tn = 0;
  for (const auto& browser : inference.active_browsers) {
    const auto key =
        util::hash_combine(util::fnv1a_u64(browser.stats->ip),
                           util::fnv1a(browser.stats->user_agent));
    const auto it = truly_abp.find(key);
    if (it == truly_abp.end()) continue;
    const bool predicted = browser.cls == core::IndicatorClass::kC;
    if (predicted && it->second) ++tp;
    if (predicted && !it->second) ++fp;
    if (!predicted && it->second) ++fn;
    if (!predicted && !it->second) ++tn;
  }
  std::printf("\nconfusion vs ground truth (positive = Adblock Plus "
              "user):\n");
  std::printf("  true positives  %llu   false positives %llu\n",
              static_cast<unsigned long long>(tp),
              static_cast<unsigned long long>(fp));
  std::printf("  false negatives %llu   true negatives  %llu\n",
              static_cast<unsigned long long>(fn),
              static_cast<unsigned long long>(tn));
  const double precision =
      tp + fp == 0 ? 0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall =
      tp + fn == 0 ? 0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  std::printf("  precision %s, recall %s\n", util::percent(precision).c_str(),
              util::percent(recall).c_str());
  std::printf("\n(The paper has no ground truth — this is what the "
              "simulator substitution buys.)\n");
  return 0;
} catch (const cli::UsageError& error) {
  std::fprintf(stderr, "adblock_detector: %s\n%s", error.what(), kUsage);
  return 2;
} catch (const std::exception& error) {
  std::fprintf(stderr, "adblock_detector: %s\n", error.what());
  return 1;
}
