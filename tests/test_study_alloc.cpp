// core: the tentpole guarantee of the allocation-free aggregation work —
// a warm replay→observe pass over an mmap trace performs ZERO heap
// allocations per record. Every layer must cooperate for this to hold:
// the mmap reader's scratch materialization, the extractor's reused
// WebObject, the classifier's per-record scratch + slot-pooled pending
// redirects, the bounded referrer maps, the query normalizer's interned
// key memo, and the symbol-keyed flat aggregate tables.
//
// The live hand-off is pinned beside it: LiveStudy's batch surface
// copies each batch once per shard, so a warm feed allocates per batch,
// not per record.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/study.h"
#include "live/live_study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "support/alloc_hook.h"
#include "trace/mmap_reader.h"
#include "trace/stream.h"
#include "trace/view.h"
#include "trace/writer.h"

namespace adscope {
namespace {

/// Forwards records but drops the meta block: re-feeding meta would
/// legitimately rebuild the study's time-series aggregate. The claim
/// under test is about the record path.
class RecordOnlyForwarder final : public trace::TraceSink {
 public:
  explicit RecordOnlyForwarder(trace::TraceSink& sink) : sink_(&sink) {}
  void on_meta(const trace::TraceMeta&) override {}
  void on_http(const trace::HttpTransaction& txn) override {
    sink_->on_http(txn);
  }
  void on_tls(const trace::TlsFlow& flow) override { sink_->on_tls(flow); }

 private:
  trace::TraceSink* sink_;
};

class StudyAllocTest : public ::testing::Test {
 protected:
  static const sim::Ecosystem& eco() {
    static const sim::Ecosystem instance = [] {
      sim::EcosystemOptions options;
      options.publishers = 200;
      return sim::Ecosystem::generate(7, options);
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

  void SetUp() override {
    trace::FileTraceWriter writer(path_);
    sim::RbnSimulator simulator(eco(), lists(), 7);
    auto options = sim::rbn2_options(40);
    options.duration_s = 1800;
    simulator.simulate(options, writer);
    writer.close();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ =
      "/tmp/adscope_test_study_alloc_" + std::to_string(::getpid()) + ".adst";
};

TEST_F(StudyAllocTest, WarmReplayObservePathIsAllocationFree) {
  core::TraceStudy study(engine(), eco().abp_registry());
  trace::MmapTraceReader reader(path_);

  // Pass 1 (cold): builds aggregate tables, interns every symbol, grows
  // every scratch buffer and slot pool.
  const auto records = reader.replay(study);
  ASSERT_GT(records, 100u);
  ASSERT_GT(study.classifier().counters().processed, 0u);

  // Warm-up passes: recycled slots (bounded maps, redirect pools, page
  // view pool) may still be capacity-upgraded while the pools' string
  // watermarks settle. Slot capacities only ever grow and the replay is
  // deterministic, so the system reaches an allocation-free fixed point
  // after a bounded number of passes — in practice one or two.
  RecordOnlyForwarder records_only(study);
  std::uint64_t warm = ~0ull;
  for (int pass = 0; pass < 6 && warm != 0; ++pass) {
    // Epoch boundary between files: replaying the same trace jumps time
    // backwards, which would pin page views open forever (idle-gap
    // closing needs monotone time within an epoch).
    study.flush_epoch();
    const auto start = test::allocation_count();
    reader.replay(records_only);
    warm = test::allocation_count() - start;
  }
  ASSERT_EQ(warm, 0u) << "no allocation-free warm pass within 6 replays";

  // Measured pass: the fixed point is stable — every record reaches the
  // aggregate buckets without touching the heap.
  study.flush_epoch();
  const auto before = test::allocation_count();
  reader.replay(records_only);
  const auto during = test::allocation_count() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations on the warm replay→observe path";

  study.finish();
  EXPECT_GT(study.users().total_requests(), 0u);
}

TEST_F(StudyAllocTest, WarmLiveBatchHandOffAllocatesPerBatchNotPerRecord) {
  trace::MemoryTrace memory;
  trace::MmapTraceReader(path_).replay(memory);
  const auto& http = memory.http();
  const auto records = http.size() + memory.tls().size();
  ASSERT_GT(records, 1000u);
  std::uint64_t span_ms = 1;
  for (const auto& txn : http) span_ms = std::max(span_ms, txn.timestamp_ms);
  for (const auto& flow : memory.tls()) {
    span_ms = std::max(span_ms, flow.timestamp_ms);
  }
  ++span_ms;

  constexpr std::size_t kBatch = trace::StreamDecoder::kBatchRecords;
  std::vector<trace::HttpTransactionView> views;
  views.reserve(http.size());
  for (const auto& txn : http) views.push_back(trace::as_view(txn));
  std::vector<trace::TlsFlow> flows = memory.tls();

  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    live::LiveStudyOptions options;
    options.threads = shards;
    // One bucket for every pass: the buckets' studies stay warm.
    options.bucket_seconds = std::uint64_t{1} << 40;
    live::LiveStudy study(engine(), eco().abp_registry(), options);
    study.on_meta(memory.meta());

    // Pass k replays the trace k spans later, so each user's time keeps
    // moving forward inside the one open bucket.
    const auto feed = [&](std::uint64_t pass) {
      for (std::size_t i = 0; i < views.size(); ++i) {
        views[i].timestamp_ms = http[i].timestamp_ms + pass * span_ms;
      }
      for (std::size_t i = 0; i < flows.size(); ++i) {
        flows[i].timestamp_ms = memory.tls()[i].timestamp_ms + pass * span_ms;
      }
      const std::span<const trace::HttpTransactionView> all_http(views);
      for (std::size_t at = 0; at < all_http.size(); at += kBatch) {
        study.on_http_batch(
            all_http.subspan(at, std::min(kBatch, all_http.size() - at)));
      }
      const std::span<const trace::TlsFlow> all_tls(flows);
      for (std::size_t at = 0; at < all_tls.size(); at += kBatch) {
        study.on_tls_batch(
            all_tls.subspan(at, std::min(kBatch, all_tls.size() - at)));
      }
      study.flush();
    };
    // Warm-up: the bucket studies build their tables and grow their
    // pools; the shards' scratch records grow to the largest field.
    for (std::uint64_t pass = 0; pass < 3; ++pass) feed(pass);

    const auto before = test::allocation_count();
    feed(3);
    const auto during = test::allocation_count() - before;
    EXPECT_LE(static_cast<double>(during) / static_cast<double>(records), 0.05)
        << during << " heap allocations for " << records << " records";
    EXPECT_EQ(study.records_ingested(), 4 * records);
    EXPECT_EQ(study.late_drops(), 0u);
    study.close();
  }
}

}  // namespace
}  // namespace adscope
