// Fuzz harness: raw wire bytes through trace::StreamDecoder into a
// 1-shard live::LiveStudy on its batch surface, chunked as the input's
// hash dictates — the ingest path of adscoped's stream server, with
// maintain() after every chunk as the server's tick would run it.
//
// Invariants:
//   * the only allowed decode failure is trace::TraceFormatError;
//   * records_ingested() + pre_meta_drops() equals the records the
//     decoder delivered (before any error);
//   * after seal_all(); flush(), the HTTP transactions and TLS flows
//     summed over the studies handed to on_seal equal
//     records_ingested() - late_drops().
#include <algorithm>
#include <atomic>
#include <span>
#include <string_view>

#include "adblock/engine.h"
#include "core/study.h"
#include "harness.h"
#include "live/live_study.h"
#include "netdb/abp_servers.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "trace/view.h"

namespace {

using adscope::live::LiveStudy;
using adscope::trace::HttpTransactionView;
using adscope::trace::TlsFlowView;
using adscope::trace::TraceMeta;

/// Studies size their time series by the meta's duration, which the wire
/// format leaves unbounded; a week keeps every input's footprint small.
constexpr std::uint64_t kMaxDurationS = 7 * 86400;

/// Counts what the decoder delivers and forwards it to the study.
struct CountingSink final : adscope::trace::TraceBatchSink {
  explicit CountingSink(LiveStudy& live) : study(live) {}
  LiveStudy& study;
  std::uint64_t delivered = 0;

  void on_meta(const TraceMeta& meta) override {
    TraceMeta bounded = meta;
    bounded.duration_s = std::min(bounded.duration_s, kMaxDurationS);
    study.on_meta(bounded);
  }
  void on_http_batch(std::span<const HttpTransactionView> batch) override {
    delivered += batch.size();
    study.on_http_batch(batch);
  }
  void on_tls_batch(std::span<const TlsFlowView> batch) override {
    delivered += batch.size();
    study.on_tls_batch(batch);
  }
};

struct World {
  adscope::adblock::FilterEngine engine;
  adscope::netdb::AbpServerRegistry registry;
};

const World& world() {
  static const World instance;
  return instance;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto stream = adscope::fuzz::as_view(data, size);
  const auto chunk = adscope::fuzz::chunk_length(stream);

  std::atomic<std::uint64_t> sealed{0};
  adscope::live::LiveStudyOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  options.bucket_seconds = 60;
  options.seal_lag_buckets = 0;
  options.on_seal = [&sealed](std::uint64_t, std::size_t,
                              const adscope::core::TraceStudy& study) {
    sealed.fetch_add(study.http_transactions() + study.https_flows());
  };
  LiveStudy study(world().engine, world().registry, options);
  CountingSink sink(study);
  adscope::trace::StreamDecoder decoder(sink);

  try {
    while (!stream.empty()) {
      const auto step =
          chunk == 0 ? stream.size() : std::min(chunk, stream.size());
      decoder.feed(stream.substr(0, step));
      stream.remove_prefix(step);
      study.maintain();
    }
  } catch (const adscope::trace::TraceFormatError&) {
    // Malformed input: what was delivered before the error still counts.
  }

  FUZZ_ASSERT(study.records_ingested() + study.pre_meta_drops() ==
              sink.delivered);
  study.seal_all();
  study.flush();
  FUZZ_ASSERT(sealed.load() == study.records_ingested() - study.late_drops());
  study.close();
  return 0;
}
