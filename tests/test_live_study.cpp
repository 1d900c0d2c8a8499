// live: StreamDecoder, JsonWriter and LiveStudy's seal-and-free bucket
// lifecycle.
//
// The load-bearing guarantee is the rotation identity: LiveStudy hands
// each sealed bucket to a snapshot store through on_seal and frees it,
// and a store that retains the newest buckets renders a report
// byte-identical to a fresh serial TraceStudy fed only their records —
// at 1, 2 and 7 ingest threads. The construction keeps per-user
// activity inside one bucket (distinct users per epoch), which is
// exactly the precondition the LiveStudy header documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "live/live_study.h"
#include "live/replay.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "stats/json.h"
#include "store/store_service.h"
#include "store/study_json.h"
#include "trace/stream.h"
#include "trace/view.h"
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

  /// A LiveStudy whose seal hook feeds a snapshot store, as adscoped
  /// wires them: the store holds the only copy of sealed history.
  /// Declaration order matters: the store must outlive the study.
  struct Fed {
    store::StoreService store;
    live::LiveStudy study;

    explicit Fed(live::LiveStudyOptions options,
                 std::uint64_t retention_buckets = 0)
        : store(store_options(options, retention_buckets), &eco().asn_db()),
          study(engine(), eco().abp_registry(), with_seal_hook(options)) {
      store.set_live_stats([this] {
        return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                                study.total_drops(), study.current_bucket()};
      });
    }
    ~Fed() { study.close(); }

    store::SnapshotTree& tree() { return store.tree(); }
    /// Every bucket the store retains, merged.
    core::StudySnapshot merged() const {
      return store.tree().merge(0, UINT64_MAX, std::nullopt);
    }

   private:
    static store::StoreServiceOptions store_options(
        const live::LiveStudyOptions& live, std::uint64_t retention_buckets) {
      store::StoreServiceOptions options;
      options.tree.study = live.study;
      options.tree.bucket_seconds = live.bucket_seconds;
      options.tree.retention_buckets = retention_buckets;
      return options;
    }
    live::LiveStudyOptions with_seal_hook(live::LiveStudyOptions options) {
      options.on_seal = [this](std::uint64_t bucket_id, std::size_t shard,
                               const core::TraceStudy& sealed) {
        store.tree().ingest(bucket_id, shard, sealed);
      };
      return options;
    }
  };

  static live::LiveStudyOptions live_options(std::size_t threads,
                                             std::uint64_t bucket_seconds) {
    live::LiveStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    options.bucket_seconds = bucket_seconds;
    return options;
  }
};

// ---------------------------------------------------------------------------
// Window rotation: the store retains the two newest epochs, compare
// against a fresh serial study over the survivors. Byte-identical, at
// 1/2/7 threads.

TEST_F(LiveStudyTest, RotationIdentityAtOneTwoAndSevenThreads) {
  // Serial ground truth: epochs 1 and 2 only, same meta.
  core::TraceStudy serial(engine(), eco().abp_registry(), study_options());
  serial.on_meta(wide_meta());
  feed_epoch(serial, 1);
  feed_epoch(serial, 2);
  serial.finish();
  const auto serial_report = report_of(serial.view());

  for (const std::size_t threads : {1u, 2u, 7u}) {
    // One bucket per epoch; the store keeps two.
    Fed fed(live_options(threads, kEpochSeconds), /*retention_buckets=*/2);
    EXPECT_EQ(fed.study.shard_count(), threads);

    fed.study.on_meta(wide_meta());
    for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(fed.study, k);

    // Watermark is now in bucket 2; maintain() seals epoch 0.
    EXPECT_EQ(fed.study.current_bucket(), 2u);
    fed.study.maintain();
    fed.study.seal_all();
    fed.study.flush();
    // Every sealed bucket was handed over and freed; the store's
    // retention retired epoch 0.
    EXPECT_EQ(fed.study.bucket_count(), 0u);
    EXPECT_GE(fed.tree().buckets_evicted(), 1u);
    EXPECT_EQ(fed.study.late_drops(), 0u);
    EXPECT_EQ(fed.study.records_ingested(), kEpochs * epoch_records());

    const auto merged = fed.merged();
    EXPECT_EQ(merged.buckets_merged(), 2u);
    EXPECT_EQ(merged.first_bucket(), 1u);
    EXPECT_EQ(merged.last_bucket(), 2u);
    EXPECT_EQ(report_of(merged.view()), serial_report)
        << "surviving-window report diverged at " << threads << " threads";
  }
}

TEST_F(LiveStudyTest, SnapshotMergesOnlySealedBuckets) {
  Fed fed(live_options(2, kEpochSeconds));
  fed.study.on_meta(wide_meta());
  feed_epoch(fed.study, 0);
  fed.study.flush();

  // Nothing is sealed yet: the buckets are open, the store is empty.
  EXPECT_EQ(fed.study.records_ingested(), epoch_records());
  EXPECT_EQ(fed.study.bucket_count(), 2u);  // one per shard
  EXPECT_EQ(fed.tree().leaf_count(), 0u);
  const auto before = fed.merged();
  EXPECT_EQ(before.buckets_merged(), 0u);
  EXPECT_EQ(before.view().traffic->requests(), 0u);

  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.study.bucket_count(), 0u);
  EXPECT_EQ(fed.study.buckets_sealed(), 2u);
  EXPECT_EQ(fed.tree().leaf_count(), 2u);
  const auto after = fed.merged();
  EXPECT_EQ(after.buckets_merged(), 1u);  // two shard leaves, one bucket
  EXPECT_EQ(after.view().traffic->requests(), epoch_trace().http().size());
  EXPECT_EQ(after.https_flows(), epoch_trace().tls().size());
}

TEST_F(LiveStudyTest, SnapshotWindowSelectsTrailingBuckets) {
  Fed fed(live_options(1, kEpochSeconds));
  fed.study.on_meta(wide_meta());
  for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(fed.study, k);
  fed.study.seal_all();
  fed.study.flush();

  // window_s= covers whole buckets ending at the watermark's bucket.
  auto trailing = fed.tree().merge(1, 2, std::nullopt);
  EXPECT_EQ(trailing.first_bucket(), 1u);
  EXPECT_EQ(trailing.last_bucket(), 2u);
  EXPECT_EQ(trailing.view().traffic->requests(),
            2 * epoch_trace().http().size());
  trailing.watermark_ms = fed.study.watermark_ms();
  trailing.records_ingested = fed.study.records_ingested();
  trailing.records_dropped = fed.study.total_drops();
  const auto windowed = fed.store.query(
      "/query/summary/*?window_s=" + std::to_string(2 * kEpochSeconds));
  ASSERT_EQ(windowed.status, 200);
  EXPECT_EQ(windowed.body, store::summary_json(trailing));

  const auto one = fed.tree().merge(1, 1, std::nullopt);
  EXPECT_EQ(one.buckets_merged(), 1u);
  EXPECT_EQ(one.view().traffic->requests(), epoch_trace().http().size());
}

// ---------------------------------------------------------------------------
// Bucket lifecycle: bounded open buckets, late drops.

/// Forwards a time-ordered replay to a LiveStudy and runs the serving
/// layer's housekeeping whenever the watermark enters a new bucket:
/// maintain(), then flush() so the seals have landed before the open
/// buckets are counted.
class Housekeeping final : public trace::TraceSink {
 public:
  explicit Housekeeping(live::LiveStudy& study) : study_(study) {}
  void on_meta(const trace::TraceMeta& meta) override { study_.on_meta(meta); }
  void on_http(const trace::HttpTransaction& txn) override {
    study_.on_http(txn);
    tick();
  }
  void on_tls(const trace::TlsFlow& flow) override {
    study_.on_tls(flow);
    tick();
  }
  /// Most open buckets seen at a housekeeping point.
  std::size_t max_open = 0;
  std::size_t housekeeping_points = 0;

 private:
  void tick() {
    const auto bucket = study_.current_bucket();
    if (bucket == last_bucket_) return;
    last_bucket_ = bucket;
    study_.maintain();
    study_.flush();
    max_open = std::max(max_open, study_.bucket_count());
    ++housekeeping_points;
  }
  live::LiveStudy& study_;
  std::optional<std::uint64_t> last_bucket_;
};

TEST_F(LiveStudyTest, OpenBucketsStayBoundedOverAMultiHourReplay) {
  // Three hours in time order: 36 five-minute buckets.
  trace::MemoryTrace hours;
  hours.on_meta(wide_meta());
  for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(hours, k);
  live::sort_by_time(hours);

  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto options = live_options(threads, 300);
    Fed fed(options);
    Housekeeping feed(fed.study);
    live::replay_time_ordered(hours, feed);
    EXPECT_GE(feed.housekeeping_points, 36u);
    EXPECT_LE(feed.max_open, threads * (options.seal_lag_buckets + 1));

    fed.study.seal_all();
    fed.study.flush();
    EXPECT_EQ(fed.study.bucket_count(), 0u);
    EXPECT_EQ(fed.study.late_drops(), 0u);
    EXPECT_EQ(fed.tree().bucket_count(), 36u);
    EXPECT_EQ(fed.merged().view().traffic->requests(), hours.http().size());
  }
}

TEST_F(LiveStudyTest, LateRecordsAreDroppedAndCounted) {
  auto options = live_options(1, 60);
  options.seal_lag_buckets = 0;  // seal aggressively right behind the watermark
  Fed fed(options);
  fed.study.on_meta(wide_meta());

  trace::HttpTransaction txn = epoch_trace().http().front();
  txn.timestamp_ms = 130'000;  // bucket 2
  fed.study.on_http(txn);
  fed.study.maintain();  // seals buckets 0 and 1
  fed.study.flush();

  txn.timestamp_ms = 30'000;  // bucket 0 — already sealed
  fed.study.on_http(txn);
  fed.study.flush();
  EXPECT_EQ(fed.study.late_drops(), 1u);
  EXPECT_EQ(fed.study.records_ingested(), 2u);

  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.merged().view().traffic->requests(), 1u);
}

TEST_F(LiveStudyTest, SealAllMovesTheFloorPastTheHighestSealedBucket) {
  Fed fed(live_options(1, 60));
  fed.study.on_meta(wide_meta());

  trace::HttpTransaction txn = epoch_trace().http().front();
  txn.timestamp_ms = 130'000;  // bucket 2
  fed.study.on_http(txn);
  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.tree().leaf_count(), 1u);

  // Bucket 2 was sealed and freed: a straggler for it, or for an older
  // bucket that never opened, must not open a fresh bucket.
  txn.timestamp_ms = 150'000;  // bucket 2
  fed.study.on_http(txn);
  txn.timestamp_ms = 70'000;  // bucket 1
  fed.study.on_http(txn);
  fed.study.flush();
  EXPECT_EQ(fed.study.late_drops(), 2u);
  EXPECT_EQ(fed.study.bucket_count(), 0u);

  // A newer bucket still opens and seals once.
  txn.timestamp_ms = 190'000;  // bucket 3
  fed.study.on_http(txn);
  fed.study.flush();
  EXPECT_EQ(fed.study.bucket_count(), 1u);
  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.study.late_drops(), 2u);
  EXPECT_EQ(fed.study.buckets_sealed(), 2u);
  EXPECT_EQ(fed.tree().leaf_count(), 2u);
  EXPECT_EQ(fed.merged().view().traffic->requests(), 2u);
}

/// Feeds time-ordered batches to a LiveStudy while another thread runs
/// maintain() in a loop. Each batch holds records of bucket 4k, then of
/// bucket 4k + 3: it jumps across two empty buckets, so its newest
/// timestamp is far enough ahead that a watermark advanced before the
/// batch is queued lets maintain() seal bucket 4k ahead of its records.
TEST_F(LiveStudyTest, ConcurrentMaintainNeverSealsAheadOfAQueuedBatch) {
  constexpr std::uint64_t kBatches = 120;
  constexpr std::size_t kHalf = 16;
  const auto& http = epoch_trace().http();
  std::vector<trace::HttpTransaction> records;
  records.reserve(kBatches * 2 * kHalf);
  for (std::uint64_t k = 0; k < kBatches; ++k) {
    for (std::size_t j = 0; j < 2 * kHalf; ++j) {
      auto txn = http[records.size() % http.size()];
      const std::uint64_t bucket = 4 * k + (j < kHalf ? 0 : 3);
      txn.timestamp_ms = (bucket * 60 + j % kHalf) * 1000;
      records.push_back(std::move(txn));
    }
  }
  std::vector<trace::HttpTransactionView> views;
  views.reserve(records.size());
  for (const auto& txn : records) views.push_back(trace::as_view(txn));

  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto options = live_options(threads, 60);
    // Batches outweigh the queues, so pushes block and any window
    // between a watermark move and the batch's push stays wide open.
    options.queue_capacity = 8;
    std::atomic<std::uint64_t> sealed_records{0};
    options.on_seal = [&sealed_records](std::uint64_t, std::size_t,
                                        const core::TraceStudy& sealed) {
      sealed_records.fetch_add(sealed.http_transactions());
    };
    live::LiveStudy study(engine(), eco().abp_registry(), options);
    study.on_meta(wide_meta());

    std::atomic<bool> done{false};
    std::thread housekeeping([&] {
      while (!done.load()) study.maintain();
    });
    for (std::uint64_t k = 0; k < kBatches; ++k) {
      study.on_http_batch(
          std::span(views).subspan(k * 2 * kHalf, 2 * kHalf));
    }
    done.store(true);
    housekeeping.join();
    study.seal_all();
    study.flush();

    EXPECT_EQ(study.late_drops(), 0u);
    EXPECT_EQ(study.records_ingested(), records.size());
    EXPECT_EQ(sealed_records.load(), records.size());
    study.close();
  }
}

/// Forwards a buffered trace to a batch sink in file order: HTTP views
/// in batches of StreamDecoder::kBatchRecords, then the TLS flows.
void feed_batches(const trace::MemoryTrace& trace,
                  trace::TraceBatchSink& sink) {
  std::vector<trace::HttpTransactionView> views;
  views.reserve(trace.http().size());
  for (const auto& txn : trace.http()) views.push_back(trace::as_view(txn));
  const std::span<const trace::HttpTransactionView> all(views);
  for (std::size_t at = 0; at < all.size();
       at += trace::StreamDecoder::kBatchRecords) {
    sink.on_http_batch(all.subspan(
        at, std::min(trace::StreamDecoder::kBatchRecords, all.size() - at)));
  }
  sink.on_tls_batch(trace.tls());
}

TEST_F(LiveStudyTest, BatchSurfaceMatchesPerRecordFeed) {
  trace::MemoryTrace epochs;
  epochs.on_meta(wide_meta());
  for (std::uint64_t k = 0; k < kEpochs; ++k) feed_epoch(epochs, k);

  for (const std::size_t threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Fed per_record(live_options(threads, 600));
    epochs.replay(per_record.study);
    Fed batched(live_options(threads, 600));
    batched.study.on_meta(epochs.meta());
    feed_batches(epochs, batched.study);
    for (auto* fed : {&per_record, &batched}) {
      fed->study.seal_all();
      fed->study.flush();
    }

    EXPECT_EQ(batched.study.records_ingested(),
              per_record.study.records_ingested());
    EXPECT_EQ(batched.tree().leaf_count(), per_record.tree().leaf_count());
    for (const char* target : {"/query/summary/*", "/query/traffic/*",
                               "/query/users/*", "/query/infra/*"}) {
      EXPECT_EQ(batched.store.query(target).body,
                per_record.store.query(target).body)
          << target;
    }
  }
}

TEST_F(LiveStudyTest, SealLagKeepsRecentBucketsOpenForStragglers) {
  auto options = live_options(1, 60);
  options.seal_lag_buckets = 1;
  Fed fed(options);
  fed.study.on_meta(wide_meta());

  trace::HttpTransaction txn = epoch_trace().http().front();
  txn.timestamp_ms = 130'000;  // bucket 2
  fed.study.on_http(txn);
  fed.study.maintain();  // seals only bucket 0
  fed.study.flush();

  txn.timestamp_ms = 70'000;  // bucket 1 — still open thanks to the lag
  fed.study.on_http(txn);
  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.study.late_drops(), 0u);
  EXPECT_EQ(fed.merged().view().traffic->requests(), 2u);
}

TEST_F(LiveStudyTest, PreMetaRecordsAreDroppedAndCounted) {
  live::LiveStudy study(engine(), eco().abp_registry());
  study.on_http(epoch_trace().http().front());
  EXPECT_EQ(study.pre_meta_drops(), 1u);
  EXPECT_EQ(study.records_ingested(), 0u);
  study.close();
}

TEST_F(LiveStudyTest, FirstMetaWinsLaterMetasCounted) {
  Fed fed(live_options(1, kEpochSeconds));
  auto meta = wide_meta();
  fed.study.on_meta(meta);
  meta.name = "impostor";
  fed.study.on_meta(meta);
  EXPECT_EQ(fed.study.metas_ignored(), 1u);
  fed.study.on_http(epoch_trace().http().front());
  fed.study.seal_all();
  fed.study.flush();
  EXPECT_EQ(fed.merged().meta().name, wide_meta().name);
}

TEST_F(LiveStudyTest, RecordsAfterCloseAreDroppedAndCounted) {
  live::LiveStudy study(engine(), eco().abp_registry());
  study.on_meta(wide_meta());
  study.close();
  study.on_http(epoch_trace().http().front());
  EXPECT_EQ(study.closed_drops(), 1u);
  // The counters stay readable after close().
  EXPECT_EQ(study.total_drops(), 1u);
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
  Fed fed(live_options(1, kEpochSeconds));
  fed.study.on_meta(wide_meta());
  feed_epoch(fed.study, 0);
  fed.study.seal_all();
  fed.study.flush();
  const auto json = fed.store.query("/query/summary/*").body;
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
  for (const char* target :
       {"/query/traffic/*", "/query/users/*", "/query/infra/*"}) {
    const auto document = fed.store.query(target);
    ASSERT_EQ(document.status, 200) << target;
    EXPECT_NE(document.body.find("\"window\":{\"bucket_seconds\":3600"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace adscope
