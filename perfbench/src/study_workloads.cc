// study-serial and study-sharded: `adscope study` replay→report, in
// process, over the run's trace.
//
// One pass = set up (world + study + reader; setup_s), replay every
// record, finish(), render_full_report. Passes repeat for --seconds and
// each metric is the median over passes. Every pass's report is checked
// byte for byte against a reference computed before the timed passes.
#include <algorithm>
#include <memory>

#include "core/parallel_study.h"
#include "core/report.h"
#include "trace/mmap_reader.h"
#include "trace/reader.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Times each batch handed to the wrapped batch sink; `calls` counts
/// records, not batches.
class TimedBatchSink final : public trace::TraceBatchSink {
 public:
  TimedBatchSink(trace::TraceBatchSink& inner, Tracer& tracer,
                 std::uint32_t span)
      : inner_(inner), tracer_(tracer), span_(span) {}

  void on_meta(const trace::TraceMeta& meta) override { inner_.on_meta(meta); }
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override {
    const auto t0 = now_ns();
    inner_.on_http_batch(batch);
    tracer_.add_call(span_, now_ns() - t0, batch.size());
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    const auto t0 = now_ns();
    inner_.on_tls_batch(batch);
    tracer_.add_call(span_, now_ns() - t0, batch.size());
  }

 private:
  trace::TraceBatchSink& inner_;
  Tracer& tracer_;
  std::uint32_t span_;
};

/// Measurements of one replay→report pass.
struct Pass {
  double setup_s = 0;
  double wall_s = 0;  // first record fed -> report rendered
  double lag_s = 0;   // last record fed -> report rendered
  double cpu_s = 0;
  double rss_mb = 0;
  double world_ms = 0;
  double engine_ms = 0;
  std::uint64_t records = 0;
  std::string report;
  // Traced passes only.
  double feed_ns = 0;  // busy time inside the study's sink calls
  double finish_ms = 0;
  double unattributed = 0;
  double feeder_cpu_s = 0;
  std::vector<double> worker_cpu_s;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// The pool the sharded study runs on, plus its threads' ids (for
/// per-thread CPU).
struct OwnedPool {
  explicit OwnedPool(std::size_t threads) {
    const auto before = task_ids();
    pool = std::make_unique<util::ThreadPool>(threads);
    for (const auto tid : task_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        tids.push_back(tid);
      }
    }
  }
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<pid_t> tids;
};

constexpr std::size_t kShards = 3;

/// Stops a pass loop: at least `min_passes`, then until `seconds` of
/// wall time since `start_ns` have passed.
bool keep_going(std::size_t passes, std::size_t min_passes,
                std::int64_t start_ns, double seconds) {
  if (passes < min_passes) return true;
  return static_cast<double>(now_ns() - start_ns) / 1e9 < seconds;
}

Pass serial_pass(const Inputs& inputs, Tracer* tracer) {
  Pass pass;
  reset_peak_rss();
  const auto s0 = now_ns();
  const World world;
  core::TraceStudy study(world.engine, world.ecosystem.abp_registry(),
                         study_options());
  trace::MmapTraceReader reader(inputs.trace_path);
  const auto s1 = now_ns();

  const auto cpu0 = process_cpu_s();
  const auto t0 = now_ns();
  std::int64_t t_fed = 0;
  std::int64_t t_fin = 0;
  if (tracer == nullptr) {
    pass.records = reader.replay(study);
    t_fed = now_ns();
    study.finish();
    t_fin = now_ns();
    pass.report = core::render_full_report(study.view(),
                                           &world.ecosystem.asn_db());
  } else {
    const auto run = tracer->new_run();
    {
      ScopedSpan replay(*tracer, "trace.replay");
      const auto feed = tracer->open_calls("core.study", replay.id());
      TimedSink timed(study, *tracer, feed);
      pass.records = reader.replay(timed);
      tracer->close_calls(feed);
      pass.feed_ns = static_cast<double>(tracer->busy_ns(feed));
    }
    t_fed = now_ns();
    {
      ScopedSpan span(*tracer, "core.finish");
      study.finish();
    }
    t_fin = now_ns();
    {
      ScopedSpan span(*tracer, "core.render");
      pass.report = core::render_full_report(study.view(),
                                             &world.ecosystem.asn_db());
    }
    const auto wall = now_ns() - t0;
    pass.unattributed =
        1.0 - static_cast<double>(tracer->top_level_busy_ns(run)) /
                  static_cast<double>(wall);
  }
  const auto t1 = now_ns();
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.rss_mb = peak_rss_mb();
  pass.setup_s = seconds_between(s0, s1);
  pass.wall_s = seconds_between(t0, t1);
  pass.lag_s = seconds_between(t_fed, t1);
  pass.finish_ms = seconds_between(t_fed, t_fin) * 1e3;
  pass.world_ms = world.build_ms();
  pass.engine_ms = world.engine_ms();
  return pass;
}

Pass sharded_pass(const Inputs& inputs, OwnedPool& pool, Tracer* tracer) {
  Pass pass;
  reset_peak_rss();
  const auto s0 = now_ns();
  const World world;
  core::ParallelStudyOptions options;
  options.study = study_options();
  options.threads = kShards;
  core::ParallelTraceStudy study(world.engine, world.ecosystem.abp_registry(),
                                 options, pool.pool.get());
  trace::MmapTraceReader reader(inputs.trace_path);
  const auto s1 = now_ns();

  std::vector<double> worker0;
  for (const auto tid : pool.tids) worker0.push_back(task_cpu_s(tid));
  const auto feeder0 = thread_cpu_s();
  const auto cpu0 = process_cpu_s();
  const auto t0 = now_ns();
  std::int64_t t_fed = 0;
  std::int64_t t_fin = 0;
  if (tracer == nullptr) {
    pass.records = reader.replay_batches(study);
    t_fed = now_ns();
    study.finish();
    t_fin = now_ns();
    pass.report = core::render_full_report(study.view(),
                                           &world.ecosystem.asn_db());
  } else {
    const auto run = tracer->new_run();
    {
      ScopedSpan replay(*tracer, "trace.replay_batches");
      const auto feed = tracer->open_calls("shard.feed", replay.id());
      TimedBatchSink timed(study, *tracer, feed);
      pass.records = reader.replay_batches(timed);
      tracer->close_calls(feed);
      pass.feed_ns = static_cast<double>(tracer->busy_ns(feed));
    }
    t_fed = now_ns();
    pass.feeder_cpu_s = thread_cpu_s() - feeder0;
    {
      ScopedSpan span(*tracer, "shard.finish");
      study.finish();
    }
    t_fin = now_ns();
    for (std::size_t i = 0; i < pool.tids.size(); ++i) {
      pass.worker_cpu_s.push_back(task_cpu_s(pool.tids[i]) - worker0[i]);
    }
    {
      ScopedSpan span(*tracer, "core.render");
      pass.report = core::render_full_report(study.view(),
                                             &world.ecosystem.asn_db());
    }
    const auto wall = now_ns() - t0;
    pass.unattributed =
        1.0 - static_cast<double>(tracer->top_level_busy_ns(run)) /
                  static_cast<double>(wall);
  }
  const auto t1 = now_ns();
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.rss_mb = peak_rss_mb();
  pass.setup_s = seconds_between(s0, s1);
  pass.wall_s = seconds_between(t0, t1);
  pass.lag_s = seconds_between(t_fed, t1);
  pass.finish_ms = seconds_between(t_fed, t_fin) * 1e3;
  pass.world_ms = world.build_ms();
  pass.engine_ms = world.engine_ms();
  return pass;
}

/// Report of a serial TraceStudy fed through `reader`.
template <class Reader>
std::string reference_report(Reader& reader) {
  const World world;
  core::TraceStudy study(world.engine, world.ecosystem.abp_registry(),
                         study_options());
  reader.replay(study);
  study.finish();
  return core::render_full_report(study.view(), &world.ecosystem.asn_db());
}

/// Runs passes (alternating untraced and traced ones in a traced run)
/// and reports their metrics.
template <class PassFn>
void run_passes(const Args& args, const std::string& reference,
                Tracer& tracer, Result& result, PassFn pass_fn) {
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  const auto start = now_ns();
  while (keep_going(plain.size() + traced.size(), args.trace ? 6 : 3, start,
                    args.seconds)) {
    const bool trace_this = args.trace && (plain.size() > traced.size());
    Pass pass = pass_fn(trace_this ? &tracer : nullptr);
    info("pass %zu%s: setup %.2f ms, %.0f rec/s, lag %.2f ms, cpu %.3f us/rec",
         plain.size() + traced.size(), trace_this ? " (traced)" : "",
         pass.setup_s * 1e3, static_cast<double>(pass.records) / pass.wall_s,
         pass.lag_s * 1e3,
         pass.cpu_s * 1e6 / static_cast<double>(pass.records));
    result.attempted += pass.records;
    if (pass.report != reference) {
      result.fail_check("report differs from the reference report");
    }
    pass.report.clear();
    (trace_this ? traced : plain).push_back(std::move(pass));
  }

  // Timings take the best pass (fastest, least CPU): on a shared host,
  // interference from other tenants only ever slows a pass, and its
  // bursts last long enough to move a median or a quartile.
  const auto over = [](const std::vector<Pass>& passes, double q, auto field) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(field(pass));
    return quantile(values, q);
  };
  const auto med = [&](const std::vector<Pass>& passes, auto field) {
    return over(passes, 0.5, field);
  };
  const auto throughput = [](const Pass& p) {
    return static_cast<double>(p.records) / p.wall_s;
  };
  info("passes: %zu untraced, %zu traced", plain.size(), traced.size());

  if (!args.trace) {
    result.set("setup_s", med(plain, [](const Pass& p) { return p.setup_s; }),
               "s");
    result.set("throughput_rps", over(plain, 1.0, throughput), "1/s");
    result.set("cpu_us_per_op", over(plain, 0.0, [](const Pass& p) {
                 return p.cpu_s * 1e6 / static_cast<double>(p.records);
               }),
               "us");
    result.set("peak_rss_mb", med(plain, [](const Pass& p) { return p.rss_mb; }),
               "MB");
    // One pass yields one report, so there is no per-request latency
    // distribution: the tail is the same pass latency.
    const double latency =
        over(plain, 0.0, [](const Pass& p) { return p.wall_s * 1e3; });
    result.set("latency_ms", latency, "ms");
    result.set("latency_tail_ms", latency, "ms");
    result.set("result_lag_ms",
               over(plain, 0.0, [](const Pass& p) { return p.lag_s * 1e3; }),
               "ms");
    return;
  }

  std::vector<double> world_ms;
  std::vector<double> engine_ms;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& pass : *set) {
      world_ms.push_back(pass.world_ms);
      engine_ms.push_back(pass.engine_ms);
    }
  }
  report_world_builds(world_ms, engine_ms, result);
  result.set("bench.unattributed_ratio",
             med(traced, [](const Pass& p) { return p.unattributed; }),
             "ratio");
  result.set("bench.trace_overhead_ratio",
             over(traced, 1.0, throughput) / over(plain, 1.0, throughput),
             "ratio");
  if (!traced.empty() && !traced.front().worker_cpu_s.empty()) {
    result.set("shard.feed_ns_per_rec", med(traced, [](const Pass& p) {
                 return p.feed_ns / static_cast<double>(p.records);
               }),
               "ns");
    result.set("shard.feeder_busy_ratio", med(traced, [](const Pass& p) {
                 return p.feeder_cpu_s / (p.wall_s - p.lag_s);
               }),
               "ratio");
    const auto worker_ratio = [](const Pass& p, bool want_max) {
      const double window = p.wall_s - p.lag_s + p.finish_ms / 1e3;
      double best = want_max ? 0.0 : 1e9;
      for (const double cpu : p.worker_cpu_s) {
        best = want_max ? std::max(best, cpu / window)
                        : std::min(best, cpu / window);
      }
      return best;
    };
    result.set("shard.worker_busy_ratio_max", med(traced, [&](const Pass& p) {
                 return worker_ratio(p, true);
               }),
               "ratio");
    result.set("shard.worker_busy_ratio_min", med(traced, [&](const Pass& p) {
                 return worker_ratio(p, false);
               }),
               "ratio");
    result.set("shard.finish_ms",
               med(traced, [](const Pass& p) { return p.finish_ms; }), "ms");
  }
}

}  // namespace

void report_world_builds(const std::vector<double>& world_ms,
                         const std::vector<double>& engine_ms, Result& result) {
  result.set("sim.world_build_ms", median(world_ms), "ms");
  result.set("adblock.engine_build_ms", median(engine_ms), "ms");
}

void run_study_serial(const Args& args, const Inputs& inputs, Tracer& tracer,
                      Result& result) {
  // Reference: the same study fed through the istream reader.
  trace::FileTraceReader file_reader(inputs.trace_path);
  const auto reference = reference_report(file_reader);
  run_passes(args, reference, tracer, result, [&](Tracer* traced) {
    return serial_pass(inputs, traced);
  });
  if (args.trace) run_layer_suite(inputs, tracer, result);
}

void run_study_sharded(const Args& args, const Inputs& inputs, Tracer& tracer,
                       Result& result) {
  // Reference: the serial study's report over the same mapped trace.
  trace::MmapTraceReader reader(inputs.trace_path);
  const auto reference = reference_report(reader);
  OwnedPool pool(kShards);
  run_passes(args, reference, tracer, result, [&](Tracer* traced) {
    return sharded_pass(inputs, pool, traced);
  });
  if (args.trace) run_layer_suite(inputs, tracer, result);
}

}  // namespace perfbench
