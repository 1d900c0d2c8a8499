// Shared setup for the experiment harnesses (one binary per paper
// table/figure, see DESIGN.md §3).
//
// Every harness builds the same deterministic World from ADSCOPE_SEED
// (default 42), prints a paper-vs-measured preamble, and writes its
// table/figure as text to stdout. Scale knobs come from the environment
// so `for b in build/bench/*; do $b; done` runs out of the box:
//   ADSCOPE_SEED        master seed            (default 42)
//   ADSCOPE_PUBLISHERS  catalog size           (default 3000)
//   ADSCOPE_HOUSEHOLDS  RBN-2 subscriber scale (default 600)
//   ADSCOPE_CRAWL_TOP   crawl size             (default 1000)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <memory>

#include "adblock/engine.h"
#include "core/study.h"
#include "sim/crawl_sim.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "stats/csv.h"

namespace adscope::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct World {
  std::uint64_t seed;
  sim::Ecosystem ecosystem;
  sim::GeneratedLists lists;
  /// Analysis engine with every list loaded (EasyList, derivative,
  /// EasyPrivacy, acceptable-ads) — the paper's classification setup.
  adblock::FilterEngine engine;

  World(std::uint64_t seed_value, sim::EcosystemOptions options)
      : seed(seed_value),
        ecosystem(sim::Ecosystem::generate(seed_value, options)),
        lists(sim::generate_lists(ecosystem)),
        engine(sim::make_engine(lists,
                                sim::ListSelection{.easylist = true,
                                                   .derivative = true,
                                                   .easyprivacy = true,
                                                   .acceptable_ads = true})) {}
};

inline World make_world() {
  sim::EcosystemOptions options;
  options.publishers =
      static_cast<std::size_t>(env_u64("ADSCOPE_PUBLISHERS", 3000));
  return World(env_u64("ADSCOPE_SEED", 42), options);
}

/// Run a full RBN simulation straight into an existing TraceStudy
/// (no trace file round trip). Returns the simulator's ground truth.
inline sim::RbnStats run_rbn_study(const World& world,
                                   const sim::RbnOptions& options,
                                   core::TraceStudy& study) {
  sim::RbnSimulator simulator(world.ecosystem, world.lists, world.seed);
  auto stats = simulator.simulate(options, study);
  study.finish();
  return stats;
}

inline sim::RbnOptions scaled_rbn2() {
  return sim::rbn2_options(
      static_cast<std::uint32_t>(env_u64("ADSCOPE_HOUSEHOLDS", 600)));
}

inline sim::RbnOptions scaled_rbn1() {
  return sim::rbn1_options(static_cast<std::uint32_t>(
      env_u64("ADSCOPE_HOUSEHOLDS", 600) * 5 / 12));
}

/// CSV writer for `name` when ADSCOPE_CSV_DIR is set, else null.
inline std::unique_ptr<stats::CsvWriter> maybe_csv(
    const std::string& name, const std::vector<std::string>& header) {
  const auto dir = stats::csv_export_dir();
  if (!dir) return nullptr;
  return std::make_unique<stats::CsvWriter>(*dir, name, header);
}

inline void preamble(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

}  // namespace adscope::bench
