// The traced layer suite: each layer of the offline pipeline timed from
// outside through its public entry points, on the run's own trace.
//
//   trace     MmapTraceReader::replay into a discarding sink, and
//             StreamDecoder::feed over the wire bytes in 64 KiB chunks
//   analyzer  HttpExtractor::on_http / on_tls
//   core      TraceClassifier::process (page attribution, type
//             inference, normalization, engine) and TraceStudy's sink
//             calls (extract + classify + aggregate), finish, render
//   adblock   FilterEngine::classify replayed over the requests the
//             classifier built for this trace
//
// Derived numbers (computed by subtraction, recorded as derived spans):
//   core.attribution_self  classify minus its engine calls
//   core.aggregate_self    study minus extract minus classify
// Each layer pass runs kReps times; metrics are medians over the reps.
#include <fstream>
#include <iterator>

#include "analyzer/http_extractor.h"
#include "core/classifier.h"
#include "core/query_normalizer.h"
#include "core/report.h"
#include "trace/mmap_reader.h"
#include "trace/stream.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kReps = 3;

class NullSink final : public trace::TraceSink {
 public:
  void on_meta(const trace::TraceMeta&) override {}
  void on_http(const trace::HttpTransaction&) override {}
  void on_tls(const trace::TlsFlow&) override {}
};

/// Classification-cache counters, read only where the classifier still
/// has a cache: the metric reads 0 once the mechanism is gone.
template <class Counters>
std::uint64_t cache_hits(const Counters& counters) {
  if constexpr (requires { counters.classify_cache_hits; }) {
    return counters.classify_cache_hits;
  } else {
    return 0;
  }
}
template <class Counters>
std::uint64_t cache_lookups(const Counters& counters) {
  if constexpr (requires { counters.classify_cache_misses; }) {
    return counters.classify_cache_hits + counters.classify_cache_misses;
  } else {
    return 0;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

}  // namespace

void run_layer_suite(const Inputs& inputs, Tracer& tracer, Result& result) {
  const World world;
  const auto options = study_options();
  trace::MmapTraceReader reader(inputs.trace_path);
  const auto records = static_cast<double>(inputs.records());
  const auto http_records = static_cast<double>(inputs.http_records);

  std::vector<double> decode;
  std::vector<double> stream_decode;
  std::vector<double> extract;
  std::vector<double> classify_total;
  std::vector<double> classify;
  std::vector<double> engine_call;
  std::vector<double> study;
  std::vector<double> finish;
  std::vector<double> render;
  core::ClassifierCounters counters;
  std::uint64_t emitted = 0;

  const std::string wire = read_file(inputs.sorted_path);
  std::vector<adblock::Request> requests;

  for (int rep = 0; rep < kReps; ++rep) {
    tracer.new_run();
    {
      NullSink null;
      const auto t0 = now_ns();
      ScopedSpan span(tracer, "trace.decode.mmap");
      reader.replay(null);
      decode.push_back(static_cast<double>(now_ns() - t0));
    }
    {
      NullSink null;
      trace::StreamDecoder decoder(null);
      const auto t0 = now_ns();
      ScopedSpan span(tracer, "trace.decode.stream");
      constexpr std::size_t kChunk = 64 * 1024;
      for (std::size_t at = 0; at < wire.size(); at += kChunk) {
        decoder.feed(std::string_view(wire).substr(at, kChunk));
      }
      stream_decode.push_back(static_cast<double>(now_ns() - t0));
      if (!decoder.finished()) {
        result.fail_check("StreamDecoder did not reach the end marker");
      }
    }
    {
      analyzer::HttpExtractor extractor;
      extractor.set_object_callback([](const analyzer::WebObject&) {});
      ScopedSpan pass(tracer, "trace.replay");
      const auto calls = tracer.open_calls("analyzer.extract", pass.id());
      TimedSink timed(extractor, tracer, calls);
      reader.replay(timed);
      tracer.close_calls(calls);
      extract.push_back(static_cast<double>(tracer.busy_ns(calls)));
    }
    {
      core::TraceClassifier classifier(world.engine, options.classifier);
      std::uint64_t emits = 0;
      classifier.set_callback([&](const core::ClassifiedObject&) { ++emits; });
      analyzer::HttpExtractor extractor;
      ScopedSpan pass(tracer, "trace.replay");
      const auto calls = tracer.open_calls("core.classify", pass.id());
      extractor.set_object_callback([&](const analyzer::WebObject& object) {
        const auto t0 = now_ns();
        classifier.process(object);
        tracer.add_call(calls, now_ns() - t0);
      });
      reader.replay(extractor);
      const auto t0 = now_ns();
      classifier.flush();
      tracer.add_call(calls, now_ns() - t0, 0);
      tracer.close_calls(calls);
      classify_total.push_back(static_cast<double>(tracer.busy_ns(calls)));
      classify.push_back(per(static_cast<double>(tracer.busy_ns(calls)),
                             static_cast<double>(classifier.processed())));
      counters = classifier.counters();
      emitted = emits;
    }
    if (requests.empty()) {
      // Untimed: the engine inputs the classifier built, re-created the
      // way it builds them (normalized URL, lowered, page context).
      core::TraceClassifier classifier(world.engine, options.classifier);
      core::QueryNormalizer normalizer(world.engine);
      classifier.set_callback([&](const core::ClassifiedObject& out) {
        adblock::Request request;
        normalizer.normalize(out.object.url).spec_to(request.url);
        util::to_lower_into(request.url, request.url_lower);
        request.host = out.object.url.host();
        request.page_host = out.page_host;
        util::to_lower_into(out.page_url, request.page_url_lower);
        request.type = out.type;
        requests.push_back(std::move(request));
      });
      analyzer::HttpExtractor extractor;
      extractor.set_object_callback(
          [&](const analyzer::WebObject& object) { classifier.process(object); });
      reader.replay(extractor);
      classifier.flush();
    }
    {
      adblock::TokenScratch tokens;
      std::uint64_t ads = 0;
      ScopedSpan pass(tracer, "adblock.replay");
      const auto calls = tracer.open_calls("adblock.classify", pass.id());
      const auto t0 = now_ns();
      for (const auto& request : requests) {
        const auto verdict = world.engine.classify(
            adblock::RequestView(request), tokens.tokenize(request.url_lower));
        ads += verdict.is_ad() ? 1 : 0;
      }
      tracer.add_call(calls, now_ns() - t0, requests.size());
      tracer.close_calls(calls);
      engine_call.push_back(per(static_cast<double>(tracer.busy_ns(calls)),
                                static_cast<double>(requests.size())));
      if (ads == 0) result.fail_check("engine replay classified no ads");
    }
    {
      core::TraceStudy trace_study(world.engine, world.ecosystem.abp_registry(),
                                   options);
      {
        ScopedSpan pass(tracer, "trace.replay");
        const auto calls = tracer.open_calls("core.study", pass.id());
        TimedSink timed(trace_study, tracer, calls);
        reader.replay(timed);
        tracer.close_calls(calls);
        study.push_back(static_cast<double>(tracer.busy_ns(calls)));
        // Derived: what the study spends beyond extract and classify.
        tracer.add_derived("core.aggregate_self", calls,
                           tracer.busy_ns(calls) -
                               static_cast<std::int64_t>(extract.back() +
                                                         classify_total.back()),
                           static_cast<std::uint64_t>(records));
      }
      {
        const auto t0 = now_ns();
        ScopedSpan span(tracer, "core.finish");
        trace_study.finish();
        finish.push_back(static_cast<double>(now_ns() - t0));
      }
      {
        const auto t0 = now_ns();
        ScopedSpan span(tracer, "core.render");
        const auto report = core::render_full_report(
            trace_study.view(), &world.ecosystem.asn_db());
        render.push_back(static_cast<double>(now_ns() - t0));
        if (report.empty()) result.fail_check("empty report");
      }
    }
  }

  const double engine_calls =
      static_cast<double>(emitted - cache_hits(counters));
  const double processed = static_cast<double>(counters.processed);
  const double classify_ns = median(classify);
  const double call_ns = median(engine_call);
  const double attribution_ns =
      classify_ns - call_ns * per(engine_calls, processed);
  tracer.add_derived("core.attribution_self", 0,
                     static_cast<std::int64_t>(attribution_ns * processed),
                     counters.processed);

  result.set("trace.decode_ns_per_rec", median(decode) / records, "ns");
  result.set("trace.stream_decode_ns_per_rec", median(stream_decode) / records,
             "ns");
  result.set("analyzer.extract_ns_per_rec", median(extract) / records, "ns");
  result.set("core.classify_ns_per_obj", classify_ns, "ns");
  result.set("core.attribution_self_ns_per_obj", attribution_ns, "ns");
  result.set("core.redirects_patched_per_kobj",
             per(static_cast<double>(counters.redirects_patched), processed) *
                 1e3,
             "1/kobj");
  result.set("core.redirects_expired_per_kobj",
             per(static_cast<double>(counters.redirects_expired), processed) *
                 1e3,
             "1/kobj");
  result.set("core.classify_cache_hit_ratio",
             per(static_cast<double>(cache_hits(counters)),
                 static_cast<double>(cache_lookups(counters))),
             "ratio");
  result.set("adblock.classify_ns_per_call", call_ns, "ns");
  result.set("adblock.calls_per_rec", per(engine_calls, http_records), "calls");
  result.set("core.study_ns_per_rec", median(study) / records, "ns");
  std::vector<double> aggregate;
  for (int rep = 0; rep < kReps; ++rep) {
    aggregate.push_back((study[rep] - extract[rep] - classify_total[rep]) /
                        records);
  }
  result.set("core.aggregate_self_ns_per_rec", median(aggregate), "ns");
  result.set("core.finish_ms", median(finish) / 1e6, "ms");
  result.set("core.render_ms", median(render) / 1e6, "ms");
  info("layer suite: %zu engine requests replayed, %.0f of %.0f objects "
       "reached the engine",
       requests.size(), engine_calls, processed);
}

}  // namespace perfbench
