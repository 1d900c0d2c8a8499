// live: StreamDecoder, JsonWriter and LiveStudy windowing.
//
// The load-bearing guarantee is the window-rotation identity: after
// buckets are sealed and evicted, the merged snapshot over the
// surviving buckets renders a report byte-identical to a fresh serial
// TraceStudy fed only the surviving records — at 1, 2 and 7 ingest
// threads. The construction keeps per-user activity inside one bucket
// (distinct users per epoch), which is exactly the precondition the
// LiveStudy header documents.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "live/live_study.h"
#include "live/replay.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "stats/json.h"
#include "store/study_json.h"
#include "trace/stream.h"
#include "trace/writer.h"

namespace adscope {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  stats::JsonWriter json;
  json.begin_object();
  json.field("plain", std::string_view("value"));
  json.field("quoted", std::string_view("a\"b\\c\nd\te"));
  json.key("nested").begin_object();
  json.field("n", std::uint64_t{7});
  json.end_object();
  json.key("list").begin_array();
  json.value(std::uint64_t{1});
  json.value(true);
  json.null();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"plain\":\"value\",\"quoted\":\"a\\\"b\\\\c\\nd\\te\","
            "\"nested\":{\"n\":7},\"list\":[1,true,null]}");
}

TEST(JsonWriterTest, ControlCharactersEscapedAsUnicode) {
  std::string out;
  stats::json_escape(out, std::string_view("a\x01z", 3));
  EXPECT_EQ(out, "a\\u0001z");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  stats::JsonWriter json;
  json.begin_array();
  json.value(1.5);
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(json.str(), "[1.5,null]");
}

TEST(JsonWriterTest, StructuralMisuseThrows) {
  {
    stats::JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(std::uint64_t{1}), std::logic_error);  // no key
  }
  {
    stats::JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.end_object(), std::logic_error);  // mismatched close
  }
  {
    stats::JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.str(), std::logic_error);  // unclosed container
  }
}

// ---------------------------------------------------------------------------
// StreamDecoder

trace::MemoryTrace tiny_trace() {
  trace::MemoryTrace memory;
  trace::TraceMeta meta;
  meta.name = "tiny";
  meta.start_unix_s = 1439305200;
  meta.duration_s = 600;
  meta.subscribers = 2;
  memory.on_meta(meta);

  trace::HttpTransaction txn;
  txn.timestamp_ms = 1000;
  txn.client_ip = 0x0a000001;
  txn.server_ip = 0xc0a80001;
  txn.status_code = 302;
  txn.host = "www.example.com";
  txn.uri = "/index.html?q=1";
  txn.referer = "http://ref.example.com/";
  txn.user_agent = "Mozilla/5.0 (tiny)";
  txn.content_type = "text/html";
  txn.location = "http://www.example.com/next";
  txn.content_length = 1234;
  txn.tcp_handshake_us = 1500;
  txn.http_handshake_us = 42000;
  memory.on_http(txn);

  // Same host + UA again: exercises dictionary reference encoding.
  txn.timestamp_ms = 2500;
  txn.uri = "/second";
  txn.referer.clear();
  txn.location.clear();
  txn.status_code = 200;
  memory.on_http(txn);

  trace::TlsFlow flow;
  flow.timestamp_ms = 3000;
  flow.client_ip = 0x0a000002;
  flow.server_ip = 0xc0a80002;
  flow.bytes = 99999;
  memory.on_tls(flow);
  return memory;
}

std::string encode(const trace::MemoryTrace& memory, bool with_end = true) {
  std::ostringstream out;
  trace::TraceEncoder encoder(out);
  memory.replay(encoder);
  if (with_end) encoder.finish();
  return out.str();
}

void expect_equal_traces(const trace::MemoryTrace& got,
                         const trace::MemoryTrace& want) {
  // Re-encoding is a full deep comparison: every field of every record
  // round-trips through the same deterministic byte layout.
  EXPECT_EQ(encode(got), encode(want));
}

TEST(StreamDecoderTest, RoundtripSingleChunk) {
  const auto wire = encode(tiny_trace());
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  EXPECT_TRUE(decoder.awaiting_header());
  const auto delivered = decoder.feed(wire);
  EXPECT_EQ(delivered, 4u);  // meta + 2 http + 1 tls
  EXPECT_TRUE(decoder.finished());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  expect_equal_traces(decoded, tiny_trace());
}

TEST(StreamDecoderTest, RoundtripByteByByte) {
  const auto wire = encode(tiny_trace());
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  std::size_t delivered = 0;
  for (const char byte : wire) {
    delivered += decoder.feed(std::string_view(&byte, 1));
  }
  EXPECT_EQ(delivered, 4u);
  EXPECT_TRUE(decoder.finished());
  expect_equal_traces(decoded, tiny_trace());
}

TEST(StreamDecoderTest, RoundtripAwkwardChunkSizes) {
  const auto wire = encode(tiny_trace());
  for (const std::size_t chunk : {2u, 3u, 7u, 13u}) {
    trace::MemoryTrace decoded;
    trace::StreamDecoder decoder(decoded);
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      decoder.feed(std::string_view(wire).substr(at, chunk));
    }
    EXPECT_TRUE(decoder.finished());
    expect_equal_traces(decoded, tiny_trace());
  }
}

TEST(StreamDecoderTest, NoEndMarkerMeansNotFinished) {
  const auto wire = encode(tiny_trace(), /*with_end=*/false);
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  decoder.feed(wire);
  EXPECT_FALSE(decoder.finished());
  EXPECT_EQ(decoded.http().size(), 2u);
  EXPECT_EQ(decoded.tls().size(), 1u);
}

TEST(StreamDecoderTest, BadMagicThrowsAndPoisons) {
  auto wire = encode(tiny_trace());
  wire[0] = 'X';
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  EXPECT_THROW(decoder.feed(wire), trace::TraceFormatError);
  EXPECT_THROW(decoder.feed("more"), trace::TraceFormatError);
}

TEST(StreamDecoderTest, TrailingBytesAfterEndThrow) {
  auto wire = encode(tiny_trace());
  wire += "junk";
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  EXPECT_THROW(decoder.feed(wire), trace::TraceFormatError);
}

TEST(StreamDecoderTest, UnknownRecordTagThrows) {
  auto wire = encode(tiny_trace(), /*with_end=*/false);
  wire += '\x7f';
  trace::MemoryTrace decoded;
  trace::StreamDecoder decoder(decoded);
  EXPECT_THROW(decoder.feed(wire), trace::TraceFormatError);
}

// ---------------------------------------------------------------------------
// Shared world for the LiveStudy tests.

class LiveStudyTest : public ::testing::Test {
 protected:
  static const sim::Ecosystem& eco() {
    static const sim::Ecosystem instance = [] {
      sim::EcosystemOptions options;
      options.publishers = 400;
      return sim::Ecosystem::generate(42, options);
    }();
    return instance;
  }
  static const sim::GeneratedLists& lists() {
    static const sim::GeneratedLists instance = sim::generate_lists(eco());
    return instance;
  }
  static const adblock::FilterEngine& engine() {
    static const adblock::FilterEngine instance = sim::make_engine(
        lists(), sim::ListSelection{.easylist = true,
                                    .derivative = true,
                                    .easyprivacy = true,
                                    .acceptable_ads = true});
    return instance;
  }
  /// One hour of RBN-2, time-sorted (as a live vantage point sees it).
  static const trace::MemoryTrace& epoch_trace() {
    static const trace::MemoryTrace instance = [] {
      trace::MemoryTrace memory;
      sim::RbnSimulator simulator(eco(), lists(), 42);
      auto options = sim::rbn2_options(50);
      options.duration_s = kEpochSeconds;
      simulator.simulate(options, memory);
      live::sort_by_time(memory);
      return memory;
    }();
    return instance;
  }
  static core::StudyOptions study_options() {
    core::StudyOptions options;
    options.inference.min_requests = 300;
    return options;
  }
  static std::string report_of(const core::StudyView& view) {
    return core::render_full_report(view, &eco().asn_db());
  }

  static constexpr std::uint64_t kEpochSeconds = 3600;
  static constexpr std::uint64_t kEpochs = 3;

  /// The meta every study below sees: one trace long enough for all
  /// epochs, so offline and live aggregates have identical shapes.
  static trace::TraceMeta wide_meta() {
    auto meta = epoch_trace().meta();
    meta.duration_s = kEpochs * kEpochSeconds;
    return meta;
  }

  /// Epoch k = the sample records with timestamps shifted k hours and
  /// client IPs shifted into a disjoint range (the simulator spans
  /// < 2^18 addresses), so no per-user state crosses an epoch boundary.
  static void feed_epoch(trace::TraceSink& sink, std::uint64_t k) {
    const std::uint64_t dt_ms = k * kEpochSeconds * 1000;
    const std::uint32_t dip = static_cast<std::uint32_t>(k) << 18;
    for (auto txn : epoch_trace().http()) {
      txn.timestamp_ms += dt_ms;
      txn.client_ip += dip;
      sink.on_http(txn);
    }
    for (auto flow : epoch_trace().tls()) {
      flow.timestamp_ms += dt_ms;
      flow.client_ip += dip;
      sink.on_tls(flow);
    }
  }

  static std::uint64_t epoch_records() {
    return epoch_trace().http().size() + epoch_trace().tls().size();
  }
};

// ---------------------------------------------------------------------------
// Window rotation: evict the oldest epoch, compare against a fresh
// serial study over the survivors. Byte-identical, at 1/2/7 threads.

TEST_F(LiveStudyTest, RotationIdentityAtOneTwoAndSevenThreads) {
  // Serial ground truth: epochs 1 and 2 only, same meta.
  core::TraceStudy serial(engine(), eco().abp_registry(), study_options());
  serial.on_meta(wide_meta());
  feed_epoch(serial, 1);
  feed_epoch(serial, 2);
  serial.finish();
  const auto serial_report = report_of(serial.view());

  for (const std::size_t threads : {1u, 2u, 7u}) {
    live::LiveStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    options.bucket_seconds = kEpochSeconds;  // one bucket per epoch
    options.window_buckets = 2;
    live::LiveStudy study(engine(), eco().abp_registry(), options);
    EXPECT_EQ(study.shard_count(), threads);

    study.on_meta(wide_meta());
    for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(study, k);

    // Watermark is now in bucket 2; the 2-bucket window retires epoch 0.
    EXPECT_EQ(study.current_bucket(), 2u);
    study.maintain();
    study.seal_all();
    study.flush();
    EXPECT_GE(study.buckets_evicted(), 1u);
    EXPECT_EQ(study.late_drops(), 0u);
    EXPECT_EQ(study.records_ingested(), kEpochs * epoch_records());

    const auto snapshot = study.snapshot();
    EXPECT_EQ(snapshot.first_bucket(), 1u);
    EXPECT_EQ(snapshot.last_bucket(), 2u);
    EXPECT_EQ(report_of(snapshot.view()), serial_report)
        << "surviving-window report diverged at " << threads << " threads";
    study.close();
  }
}

TEST_F(LiveStudyTest, SnapshotMergesOnlySealedBuckets) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.threads = 2;
  options.bucket_seconds = kEpochSeconds;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());
  feed_epoch(study, 0);
  study.flush();

  // Nothing is sealed yet: the snapshot is empty (but counts ingest).
  const auto before = study.snapshot();
  EXPECT_EQ(before.buckets_merged(), 0u);
  EXPECT_EQ(before.records_ingested, epoch_records());
  EXPECT_EQ(before.view().traffic->requests(), 0u);

  study.seal_all();
  study.flush();
  const auto after = study.snapshot();
  EXPECT_EQ(after.buckets_merged(), 2u);  // one per shard
  EXPECT_EQ(after.view().traffic->requests(), epoch_trace().http().size());
  EXPECT_EQ(after.https_flows(), epoch_trace().tls().size());
  study.close();
}

TEST_F(LiveStudyTest, SnapshotWindowSelectsTrailingBuckets) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.threads = 1;
  options.bucket_seconds = kEpochSeconds;
  options.window_buckets = 10;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());
  for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(study, k);
  study.seal_all();
  study.flush();

  const auto trailing = study.snapshot_window(2 * kEpochSeconds);
  EXPECT_EQ(trailing.first_bucket(), 1u);
  EXPECT_EQ(trailing.last_bucket(), 2u);
  EXPECT_EQ(trailing.view().traffic->requests(),
            2 * epoch_trace().http().size());

  const auto one = study.snapshot(1, 1);
  EXPECT_EQ(one.buckets_merged(), 1u);
  EXPECT_EQ(one.view().traffic->requests(), epoch_trace().http().size());
  study.close();
}

// ---------------------------------------------------------------------------
// Drop accounting.

TEST_F(LiveStudyTest, LateRecordsAreDroppedAndCounted) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.bucket_seconds = 60;
  options.seal_lag_buckets = 0;  // seal aggressively right behind the watermark
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());

  trace::HttpTransaction txn = epoch_trace().http().front();
  txn.timestamp_ms = 130'000;  // bucket 2
  study.on_http(txn);
  study.maintain();  // seals buckets 0 and 1
  study.flush();

  txn.timestamp_ms = 30'000;  // bucket 0 — already sealed
  study.on_http(txn);
  study.flush();
  EXPECT_EQ(study.late_drops(), 1u);
  EXPECT_EQ(study.records_ingested(), 2u);

  study.seal_all();
  study.flush();
  EXPECT_EQ(study.snapshot().view().traffic->requests(), 1u);
  study.close();
}

TEST_F(LiveStudyTest, SealLagKeepsRecentBucketsOpenForStragglers) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.bucket_seconds = 60;
  options.seal_lag_buckets = 1;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());

  trace::HttpTransaction txn = epoch_trace().http().front();
  txn.timestamp_ms = 130'000;  // bucket 2
  study.on_http(txn);
  study.maintain();  // seals only bucket 0
  study.flush();

  txn.timestamp_ms = 70'000;  // bucket 1 — still open thanks to the lag
  study.on_http(txn);
  study.seal_all();
  study.flush();
  EXPECT_EQ(study.late_drops(), 0u);
  EXPECT_EQ(study.snapshot().view().traffic->requests(), 2u);
  study.close();
}

TEST_F(LiveStudyTest, PreMetaRecordsAreDroppedAndCounted) {
  live::LiveStudy study(engine(), eco().abp_registry());
  study.on_http(epoch_trace().http().front());
  EXPECT_EQ(study.pre_meta_drops(), 1u);
  EXPECT_EQ(study.records_ingested(), 0u);
  study.close();
}

TEST_F(LiveStudyTest, FirstMetaWinsLaterMetasCounted) {
  live::LiveStudy study(engine(), eco().abp_registry());
  auto meta = wide_meta();
  study.on_meta(meta);
  meta.name = "impostor";
  study.on_meta(meta);
  EXPECT_EQ(study.metas_ignored(), 1u);
  EXPECT_EQ(study.snapshot().meta().name, wide_meta().name);
  study.close();
}

TEST_F(LiveStudyTest, RecordsAfterCloseAreDroppedAndCounted) {
  live::LiveStudy study(engine(), eco().abp_registry());
  study.on_meta(wide_meta());
  study.close();
  study.on_http(epoch_trace().http().front());
  EXPECT_EQ(study.closed_drops(), 1u);
  // The study stays queryable after close().
  EXPECT_EQ(study.snapshot().records_dropped, 1u);
}

TEST_F(LiveStudyTest, FlushDrainsTheQueues) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.threads = 3;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());
  feed_epoch(study, 0);
  study.flush();
  EXPECT_EQ(study.queue_depth(), 0u);
  study.close();
}

// ---------------------------------------------------------------------------
// JSON rendering sanity (schema-level; exact numbers are covered by the
// identity tests above and the server end-to-end test).

TEST_F(LiveStudyTest, SummaryJsonCarriesTheHeadlineNumbers) {
  live::LiveStudyOptions options;
  options.study = study_options();
  options.bucket_seconds = kEpochSeconds;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  study.on_meta(wide_meta());
  feed_epoch(study, 0);
  study.seal_all();
  study.flush();
  const auto snapshot = study.snapshot();
  const auto json = store::summary_json(snapshot);
  EXPECT_NE(json.find("\"trace\":{\"name\":\"RBN-2\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\":" +
                      std::to_string(epoch_trace().http().size())),
            std::string::npos);
  EXPECT_NE(json.find("\"classes\":{\"A\":"), std::string::npos);
  EXPECT_NE(json.find("\"records_ingested\":" +
                      std::to_string(epoch_records())),
            std::string::npos);

  // The other documents render without structural errors and share the
  // window header.
  for (const auto& document :
       {store::traffic_json(snapshot), store::users_json(snapshot),
        store::infra_json(snapshot, &eco().asn_db())}) {
    EXPECT_NE(document.find("\"window\":{\"bucket_seconds\":3600"),
              std::string::npos);
  }
  study.close();
}

}  // namespace
}  // namespace adscope
