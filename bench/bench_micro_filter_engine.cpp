// Micro-benchmarks: filter-engine throughput and the token-index
// ablation (DESIGN.md §4.1) — keyword-indexed candidate selection vs a
// linear scan over all filters, plus parsing and URL tokenization costs.
//
// Also: a compiled-vs-oracle matcher ablation and the per-call latency
// distribution. A custom main() re-times the headline numbers
// and emits BENCH_filter_engine.json via JsonMetrics so CI can track
// the speedup against the recorded pre-rewrite baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "adblock/token_index.h"
#include "experiment_common.h"

namespace {

using namespace adscope;

// BM_EngineClassify on the seed (pre-compiled-matcher) engine, measured
// on the reference box. The JSON metrics report the current build
// against this so regressions show up as a shrinking speedup.
constexpr double kSeedClassifyNs = 1720.0;

const bench::World& world() {
  static const bench::World instance = bench::make_world();
  return instance;
}

// A stream of requests drawn from real simulated pages.
const std::vector<adblock::Request>& request_stream() {
  static const std::vector<adblock::Request> stream = [] {
    std::vector<adblock::Request> requests;
    sim::PageModel model(world().ecosystem);
    util::Rng rng(7);
    for (std::size_t site = 0; site < 200; ++site) {
      const auto page = model.build(
          site % world().ecosystem.publishers().size(), rng);
      for (const auto& request : page.requests) {
        requests.push_back(adblock::make_request(request.url, page.page_url,
                                                 request.true_type));
      }
    }
    return requests;
  }();
  return stream;
}

void BM_EngineClassify(benchmark::State& state) {
  const auto& requests = request_stream();
  std::size_t i = 0;
  std::uint64_t ads = 0;
  for (auto _ : state) {
    ads += world().engine.classify(requests[i]).is_ad();
    i = (i + 1) % requests.size();
  }
  benchmark::DoNotOptimize(ads);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineClassify);

// Ablation: linear scan over every filter of every list.
void BM_EngineClassifyLinearScan(benchmark::State& state) {
  const auto& requests = request_stream();
  const auto& engine = world().engine;
  std::size_t i = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const auto& request = requests[i];
    const adblock::Filter* blocking = nullptr;
    const adblock::Filter* exception = nullptr;
    for (std::size_t l = 0; l < engine.list_count(); ++l) {
      for (const auto& filter :
           engine.list(static_cast<adblock::ListId>(l)).filters()) {
        if (filter.is_exception()) {
          if (exception == nullptr && filter.matches(request)) {
            exception = &filter;
          }
        } else if (blocking == nullptr && filter.matches(request)) {
          blocking = &filter;
        }
      }
    }
    hits += blocking != nullptr && exception == nullptr;
    i = (i + 1) % requests.size();
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineClassifyLinearScan);

// Ablation: compiled pattern programs vs the recursive oracle, over
// every (filter, url) pair of the generated EasyList x request stream.
template <bool kOracle>
void match_benchmark(benchmark::State& state) {
  const auto& requests = request_stream();
  const auto& filters = world().engine.list(0).filters();
  std::size_t i = 0;
  std::uint64_t matched = 0;
  for (auto _ : state) {
    const auto& request = requests[i % requests.size()];
    const auto& filter = filters[(i / requests.size()) % filters.size()];
    if constexpr (kOracle) {
      matched += filter.matches_url_oracle(request.url_lower, request.url);
    } else {
      matched += filter.matches_url(request.url_lower, request.url);
    }
    ++i;
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(state.iterations());
}

void BM_FilterMatchCompiled(benchmark::State& state) {
  match_benchmark<false>(state);
}
BENCHMARK(BM_FilterMatchCompiled);

void BM_FilterMatchOracle(benchmark::State& state) {
  match_benchmark<true>(state);
}
BENCHMARK(BM_FilterMatchOracle);

void BM_UrlTokenize(benchmark::State& state) {
  const auto& requests = request_stream();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adblock::url_token_hashes(requests[i].url_lower));
    i = (i + 1) % requests.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UrlTokenize);

// The scratch variant the hot path actually uses (no per-call vector).
void BM_UrlTokenizeScratch(benchmark::State& state) {
  const auto& requests = request_stream();
  adblock::TokenScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scratch.tokenize(requests[i].url_lower));
    i = (i + 1) % requests.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UrlTokenizeScratch);

void BM_ListParse(benchmark::State& state) {
  const auto& lists = world().lists;
  for (auto _ : state) {
    auto parsed = adblock::FilterList::parse(
        lists.easylist, adblock::ListKind::kEasyList, "easylist");
    benchmark::DoNotOptimize(parsed.filters().size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(world().lists.easylist.size()));
}
BENCHMARK(BM_ListParse);

void BM_EngineBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto engine = sim::make_engine(world().lists,
                                   sim::ListSelection{.easylist = true,
                                                      .derivative = true,
                                                      .easyprivacy = true,
                                                      .acceptable_ads = true});
    benchmark::DoNotOptimize(engine.active_filter_count());
  }
}
BENCHMARK(BM_EngineBuild);

// --- JSON metrics (custom main) ---------------------------------------
// Re-times the headline paths with a steady clock (min of repeats, so a
// busy CI neighbour inflates nothing) and records them next to the
// seed baseline. Inert unless ADSCOPE_JSON_DIR is set.

using Clock = std::chrono::steady_clock;

double min_of_repeats(int repeats, double (*measure)()) {
  (void)measure();  // warm-up: fault in code and data, settle the clock
  double best = measure();
  for (int r = 1; r < repeats; ++r) best = std::min(best, measure());
  return best;
}

double measure_classify_ns() {
  const auto& requests = request_stream();
  std::uint64_t ads = 0;
  const std::size_t iterations = 16 * requests.size();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    ads += world().engine.classify(requests[i % requests.size()]).is_ad();
  }
  const auto stop = Clock::now();
  benchmark::DoNotOptimize(ads);
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iterations);
}

double percentile(std::vector<double>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

// Per-call latencies over one pass of the stream, for tail percentiles.
void record_latency_percentiles(bench::JsonMetrics& json) {
  const auto& requests = request_stream();
  adblock::TokenScratch scratch;
  std::vector<double> samples;
  samples.reserve(requests.size());
  for (const auto& request : requests) {
    const auto start = Clock::now();
    benchmark::DoNotOptimize(world().engine.classify(
        adblock::RequestView(request), scratch.tokenize(request.url_lower)));
    const auto stop = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count());
  }
  json.record("classify_p50_ns", percentile(samples, 0.50));
  json.record("classify_p99_ns", percentile(samples, 0.99));
}

void emit_json_metrics() {
  bench::JsonMetrics json("filter_engine");
  if (!json.enabled()) return;

  const double after_ns = min_of_repeats(5, &measure_classify_ns);
  json.record("classify_ns_baseline", kSeedClassifyNs);
  json.record("classify_ns", after_ns);
  json.record("classify_speedup_vs_baseline", kSeedClassifyNs / after_ns);

  record_latency_percentiles(json);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json_metrics();
  return 0;
}
