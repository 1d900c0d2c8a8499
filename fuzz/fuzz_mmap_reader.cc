// Fuzz harness: mutated in-memory .adst buffers through MmapTraceReader.
//
// Invariants:
//   * construction and replay fail only with trace::TraceFormatError;
//   * replay is restartable: a second replay_batches delivers the same
//     record count;
//   * replay_raw agrees with replay_batches on the record count, and
//     the raw spans round-trip: header_bytes() + every span re-decodes
//     through StreamDecoder to the same record count with no error
//     (cross-validating the two decoder implementations).
#include <string>
#include <string_view>

#include "harness.h"
#include "trace/mmap_reader.h"
#include "trace/stream.h"
#include "trace/view.h"

namespace {

using adscope::trace::HttpTransactionView;
using adscope::trace::MmapTraceReader;
using adscope::trace::TlsFlowView;
using adscope::trace::TraceMeta;

/// Touches every delivered byte so ASan sees any view pointing outside
/// the buffer.
struct TouchSink final : adscope::trace::TraceBatchSink {
  std::uint64_t checksum = 0;
  void on_meta(const TraceMeta& meta) override {
    for (const char c : meta.name) checksum += static_cast<std::uint8_t>(c);
  }
  void on_http_batch(std::span<const HttpTransactionView> batch) override {
    for (const auto& view : batch) {
      for (const char c : view.host) checksum += static_cast<std::uint8_t>(c);
      for (const char c : view.uri) checksum += static_cast<std::uint8_t>(c);
      for (const char c : view.payload) {
        checksum += static_cast<std::uint8_t>(c);
      }
    }
  }
  void on_tls_batch(std::span<const TlsFlowView> batch) override {
    for (const auto& flow : batch) checksum += flow.bytes;
  }
};

struct CollectRaw final : MmapTraceReader::RawSink {
  std::string stream;
  void on_raw(const MmapTraceReader::RawRecord& record) override {
    stream.append(record.bytes);
  }
};

struct CountSink final : adscope::trace::TraceSink {
  void on_meta(const TraceMeta&) override {}
  void on_http(const adscope::trace::HttpTransaction&) override {}
  void on_tls(const adscope::trace::TlsFlow&) override {}
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto hash = adscope::fuzz::fnv1a(adscope::fuzz::as_view(data, size));
  MmapTraceReader::Options options;
  options.batch_records = 1 + static_cast<std::size_t>(hash % 64);

  try {
    MmapTraceReader reader(data, size, options);
    TouchSink sink;
    const auto first = reader.replay_batches(sink);
    // Restartable: same buffer, same count.
    TouchSink again;
    FUZZ_ASSERT(reader.replay_batches(again) == first);
    FUZZ_ASSERT(again.checksum == sink.checksum);

    CollectRaw raw;
    FUZZ_ASSERT(reader.replay_raw(raw) == first);

    // Raw round trip: the spans plus the header form a valid stream
    // decoding to the same records (+1: StreamDecoder counts the meta).
    // A TraceFormatError here is a real divergence between the two
    // decoders, not an expected rejection — assert, don't swallow.
    CountSink count;
    adscope::trace::StreamDecoder decoder(count);
    std::string rebuilt(reader.header_bytes());
    rebuilt += raw.stream;
    bool round_trip_ok = true;
    try {
      decoder.feed(rebuilt);
    } catch (const adscope::trace::TraceFormatError&) {
      round_trip_ok = false;
    }
    FUZZ_ASSERT(round_trip_ok);
    FUZZ_ASSERT(decoder.records_decoded() == first + 1);
  } catch (const adscope::trace::TraceFormatError&) {
    // Structured rejection is the expected failure mode.
  }
  return 0;
}
