// The three workloads and the traced layer suite.
//
// Every workload fills `result` with its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run, Args::trace) and counts
// attempted/failed operations; output checks call Result::fail_check.
#pragma once

#include "common.h"
#include "tracer.h"

namespace perfbench {

void run_study_serial(const Args& args, const Inputs& inputs, Tracer& tracer,
                      Result& result);
void run_study_sharded(const Args& args, const Inputs& inputs, Tracer& tracer,
                       Result& result);
void run_query_serve(const Args& args, const Inputs& inputs, Tracer& tracer,
                     Result& result);

/// Traced layer passes over the run's trace, common to every workload:
/// decode (mmap replay and StreamDecoder::feed), HttpExtractor,
/// TraceClassifier::process, a FilterEngine::classify replay, and a
/// TraceStudy replay with finish and render. Fills the trace.*,
/// analyzer.*, core.* and adblock.* per-layer metrics.
void run_layer_suite(const Inputs& inputs, Tracer& tracer, Result& result);

/// Sets the world-build per-layer metrics from the setups a workload
/// timed.
void report_world_builds(const std::vector<double>& world_ms,
                         const std::vector<double>& engine_ms, Result& result);

/// Times each record delivered to the wrapped sink as one call of span
/// `span`.
class TimedSink final : public trace::TraceSink {
 public:
  TimedSink(trace::TraceSink& inner, Tracer& tracer, std::uint32_t span)
      : inner_(inner), tracer_(tracer), span_(span) {}

  void on_meta(const trace::TraceMeta& meta) override { inner_.on_meta(meta); }
  void on_http(const trace::HttpTransaction& txn) override {
    const auto t0 = now_ns();
    inner_.on_http(txn);
    tracer_.add_call(span_, now_ns() - t0);
  }
  void on_tls(const trace::TlsFlow& flow) override {
    const auto t0 = now_ns();
    inner_.on_tls(flow);
    tracer_.add_call(span_, now_ns() - t0);
  }

 private:
  trace::TraceSink& inner_;
  Tracer& tracer_;
  std::uint32_t span_;
};

}  // namespace perfbench
