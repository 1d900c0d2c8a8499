// core: ParallelTraceStudy — shard/merge correctness.
//
// Two layers of guarantees are asserted here:
//  * every aggregate's merge() is a commutative/associative sum, so the
//    shard combination cannot depend on scheduling (property-style
//    tests over generated shards);
//  * the sharded pipeline end-to-end produces a report byte-identical
//    to the serial TraceStudy on the same RBN trace, at 1, 2 and 7
//    threads.
// Plus unit coverage for the util substrate (ThreadPool, BoundedQueue).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/parallel_study.h"
#include "core/report.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "trace/io.h"
#include "trace/mmap_reader.h"
#include "trace/writer.h"
#include "util/bounded_queue.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace adscope {
namespace {

// ---------------------------------------------------------------------------
// util substrate

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 16; ++i) {
    done.push_back(pool.submit([&sum] { sum.fetch_add(1); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(sum.load(), 16);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  util::ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(util::resolve_thread_count(0), 1u);
  EXPECT_EQ(util::resolve_thread_count(5), 5u);
}

TEST(BoundedQueueTest, FifoAndDrainAfterClose) {
  util::BoundedQueue<int> queue(4);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.push(i));
  queue.close();
  EXPECT_FALSE(queue.push(99));  // rejected after close
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, BackpressureBlocksUntilConsumed) {
  util::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(0));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    queue.push(1);  // blocks: queue is full
    second_pushed.store(true);
  });
  // The producer must be stuck behind the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  int out = -1;
  EXPECT_TRUE(queue.pop(out));
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducer) {
  util::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(0));
  std::atomic<bool> rejected{false};
  std::thread producer([&] { rejected.store(!queue.push(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

// ---------------------------------------------------------------------------
// Shared world: one small RBN trace, reused by every study test below.

class ParallelStudyTest : public ::testing::Test {
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
  static const trace::MemoryTrace& sample_trace() {
    static const trace::MemoryTrace instance = [] {
      trace::MemoryTrace memory;
      sim::RbnSimulator simulator(eco(), lists(), 42);
      auto options = sim::rbn2_options(60);
      options.duration_s = 4 * 3600;
      simulator.simulate(options, memory);
      return memory;
    }();
    return instance;
  }
  static core::StudyOptions study_options() {
    core::StudyOptions options;
    options.inference.min_requests = 300;
    return options;
  }
  /// The serial ground truth every parallel run must reproduce.
  static const core::TraceStudy& serial() {
    static const core::TraceStudy& instance = *[] {
      auto study = new core::TraceStudy(engine(), eco().abp_registry(),
                                        study_options());
      sample_trace().replay(*study);
      study->finish();
      return study;
    }();
    return instance;
  }
  static std::string report_of(const core::StudyView& view) {
    return core::render_full_report(view, &eco().asn_db());
  }
  /// Small dispatch batches, so a queue feed flushes plenty of them.
  static core::ParallelStudyOptions sharded_options(std::size_t threads) {
    core::ParallelStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    options.dispatch_batch_records = 64;
    return options;
  }
};

// ---------------------------------------------------------------------------
// Property-style merge laws.
//
// Shards are generated exactly the way ParallelTraceStudy generates
// them (hash(client_ip) % n), then merged by hand in different orders
// and groupings; the rendered report exposes every aggregate at once.

namespace {

/// A standalone aggregate set that merges like ParallelTraceStudy does.
struct Aggregates {
  core::UserIndex users;
  core::TrafficStats traffic;
  core::WhitelistAnalysis whitelist;
  core::InfraAnalysis infra;
  core::RtbAnalysis rtb;
  core::PageViewStats page_views;
  core::ClassifierCounters counters;
  std::uint64_t https_flows = 0;

  explicit Aggregates(std::uint64_t duration_s) : traffic(duration_s) {}

  void absorb(const core::TraceStudy& study) {
    users.merge(study.users());
    traffic.merge(study.traffic());
    whitelist.merge(study.whitelist());
    infra.merge(study.infra());
    rtb.merge(study.rtb());
    page_views.merge(study.page_views());
    counters.merge(study.classifier().counters());
    https_flows += study.https_flows();
  }

  void absorb(const Aggregates& other) {
    users.merge(other.users);
    traffic.merge(other.traffic);
    whitelist.merge(other.whitelist);
    infra.merge(other.infra);
    rtb.merge(other.rtb);
    page_views.merge(other.page_views);
    counters.merge(other.counters);
    https_flows += other.https_flows;
  }

  core::StudyView view(const trace::TraceMeta& meta,
                       const core::InferenceOptions& inference) const {
    core::StudyView view;
    view.meta = &meta;
    view.users = &users;
    view.traffic = &traffic;
    view.whitelist = &whitelist;
    view.infra = &infra;
    view.rtb = &rtb;
    view.page_views = &page_views;
    view.https_flows = https_flows;
    view.inference_options = inference;
    return view;
  }
};

}  // namespace

class MergeLawsTest : public ParallelStudyTest {
 protected:
  static constexpr std::size_t kShards = 3;

  /// Finished per-shard studies over the hash-partitioned sample trace.
  static const std::vector<std::unique_ptr<core::TraceStudy>>& shards() {
    static const auto instance = [] {
      std::vector<std::unique_ptr<core::TraceStudy>> studies;
      for (std::size_t i = 0; i < kShards; ++i) {
        studies.push_back(std::make_unique<core::TraceStudy>(
            engine(), eco().abp_registry(), study_options()));
        studies.back()->on_meta(sample_trace().meta());
      }
      for (const auto& txn : sample_trace().http()) {
        studies[util::fnv1a_u64(txn.client_ip) % kShards]->on_http(txn);
      }
      for (const auto& flow : sample_trace().tls()) {
        studies[util::fnv1a_u64(flow.client_ip) % kShards]->on_tls(flow);
      }
      for (auto& study : studies) study->finish();
      return studies;
    }();
    return instance;
  }

  static std::string merged_report(const std::vector<std::size_t>& order) {
    Aggregates merged(sample_trace().meta().duration_s);
    for (const auto i : order) merged.absorb(*shards()[i]);
    return report_of(
        merged.view(sample_trace().meta(), study_options().inference));
  }
};

TEST_F(MergeLawsTest, MergeIsCommutative) {
  const auto reference = merged_report({0, 1, 2});
  EXPECT_EQ(merged_report({0, 2, 1}), reference);
  EXPECT_EQ(merged_report({1, 0, 2}), reference);
  EXPECT_EQ(merged_report({1, 2, 0}), reference);
  EXPECT_EQ(merged_report({2, 0, 1}), reference);
  EXPECT_EQ(merged_report({2, 1, 0}), reference);
}

TEST_F(MergeLawsTest, MergeIsAssociative) {
  const auto duration = sample_trace().meta().duration_s;
  // ((A + B) + C)
  Aggregates left(duration);
  left.absorb(*shards()[0]);
  left.absorb(*shards()[1]);
  left.absorb(*shards()[2]);
  // (A + (B + C))
  Aggregates bc(duration);
  bc.absorb(*shards()[1]);
  bc.absorb(*shards()[2]);
  Aggregates right(duration);
  right.absorb(*shards()[0]);
  right.absorb(bc);

  const auto& meta = sample_trace().meta();
  const auto inference = study_options().inference;
  EXPECT_EQ(report_of(left.view(meta, inference)),
            report_of(right.view(meta, inference)));
  EXPECT_EQ(left.counters.processed, right.counters.processed);
  EXPECT_EQ(left.counters.redirects_patched, right.counters.redirects_patched);
}

TEST_F(MergeLawsTest, PartitionPlusMergeMatchesSerial) {
  EXPECT_EQ(merged_report({0, 1, 2}), report_of(serial().view()));
}

// ---------------------------------------------------------------------------
// End-to-end: ParallelTraceStudy vs the serial study.

TEST_F(ParallelStudyTest, IdenticalReportAtOneTwoAndSevenThreads) {
  const auto serial_report = report_of(serial().view());
  for (const std::size_t threads : {1u, 2u, 7u}) {
    core::ParallelStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    core::ParallelTraceStudy study(engine(), eco().abp_registry(), options);
    EXPECT_EQ(study.shard_count(), threads);
    sample_trace().replay(study);
    study.finish();
    EXPECT_EQ(report_of(study.view()), serial_report)
        << "report diverged at " << threads << " threads";
    // Counters are not part of the report; compare them explicitly.
    EXPECT_EQ(study.classifier_counters().processed,
              serial().classifier().counters().processed);
    EXPECT_EQ(study.https_flows(), serial().https_flows());
    EXPECT_EQ(study.transactions_before_meta(),
              serial().transactions_before_meta());
  }
}

/// Forwards the batch calls but not TraceBatchSink::replay_mapped, the
/// way a timing or logging wrapper does: the study behind it is fed
/// through its queues.
class ForwardingBatchSink final : public trace::TraceBatchSink {
 public:
  explicit ForwardingBatchSink(trace::TraceBatchSink& inner) : inner_(inner) {}
  void on_meta(const trace::TraceMeta& meta) override { inner_.on_meta(meta); }
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override {
    inner_.on_http_batch(batch);
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    inner_.on_tls_batch(batch);
  }

 private:
  trace::TraceBatchSink& inner_;
};

/// The sample trace written to a file for the mapped-replay cases,
/// removed again on scope exit (named per process: ctest runs the cases
/// in parallel processes).
struct SampleTraceFile {
  explicit SampleTraceFile(const trace::MemoryTrace& memory)
      : path("/tmp/adscope_test_parallel_mmap_" + std::to_string(::getpid()) +
             ".adst") {
    trace::FileTraceWriter writer(path);
    memory.replay(writer);
  }
  ~SampleTraceFile() { std::remove(path.c_str()); }
  std::string path;
};

std::uint64_t record_count(const trace::MemoryTrace& memory) {
  return memory.http().size() + memory.tls().size();
}

/// Records per shard at `shards` shards, counted from the trace.
std::vector<std::uint64_t> shard_split(const trace::MemoryTrace& memory,
                                       std::size_t shards) {
  std::vector<std::uint64_t> counts(shards);
  for (const auto& txn : memory.http()) {
    ++counts[util::fnv1a_u64(txn.client_ip) % shards];
  }
  for (const auto& flow : memory.tls()) {
    ++counts[util::fnv1a_u64(flow.client_ip) % shards];
  }
  return counts;
}

TEST_F(ParallelStudyTest, MmapBatchReplayIdenticalAtOneTwoAndSevenThreads) {
  // The cursor feed end to end: one reader per shard over the mapped
  // file, filtered by shard, merged. It runs on a pool of exactly N
  // threads (the queue drain loops would hold all of them) and must be
  // byte-identical to the serial study fed record by record.
  const SampleTraceFile file(sample_trace());
  const auto serial_report = report_of(serial().view());
  for (const std::size_t threads : {1u, 2u, 7u}) {
    util::ThreadPool pool(threads);
    core::ParallelTraceStudy study(engine(), eco().abp_registry(),
                                   sharded_options(threads), &pool);
    trace::MmapTraceReader reader(file.path);
    EXPECT_EQ(reader.replay_batches(study), record_count(sample_trace()));
    study.finish();
    EXPECT_EQ(report_of(study.view()), serial_report)
        << "mmap cursor report diverged at " << threads << " threads";
    EXPECT_EQ(study.classifier_counters().processed,
              serial().classifier().counters().processed);
    EXPECT_EQ(study.https_flows(), serial().https_flows());
    EXPECT_EQ(study.shard_records(), shard_split(sample_trace(), threads));
    // Only the cursor feed finishes the shards during the replay.
    EXPECT_THROW(study.on_tls(sample_trace().tls().front()), std::logic_error);
  }
}

TEST_F(ParallelStudyTest, ForwardedBatchReplayUsesQueuesAndIsIdentical) {
  const SampleTraceFile file(sample_trace());
  const auto serial_report = report_of(serial().view());
  for (const std::size_t threads : {1u, 2u, 7u}) {
    util::ThreadPool pool(threads);
    core::ParallelTraceStudy study(engine(), eco().abp_registry(),
                                   sharded_options(threads), &pool);
    ForwardingBatchSink forward(study);
    trace::MmapTraceReader reader(file.path);
    EXPECT_EQ(reader.replay_batches(forward), record_count(sample_trace()));
    study.finish();
    EXPECT_EQ(report_of(study.view()), serial_report)
        << "queued mmap report diverged at " << threads << " threads";
    EXPECT_EQ(study.classifier_counters().processed,
              serial().classifier().counters().processed);
    EXPECT_EQ(study.shard_records(), shard_split(sample_trace(), threads));
  }
}

TEST_F(ParallelStudyTest, TruncatedTraceThrowsAfterJoiningEveryCursor) {
  const SampleTraceFile file(sample_trace());
  util::ThreadPool pool(3);
  {
    // Cut the file inside a record halfway through it: a cut on a
    // record boundary would read as an interrupted writer, not an error.
    std::string bytes;
    {
      trace::MmapTraceReader full(file.path);
      struct Spans final : trace::MmapTraceReader::RawSink {
        std::vector<std::string_view> records;
        void on_raw(const trace::MmapTraceReader::RawRecord& record) override {
          records.push_back(record.bytes);
        }
      } spans;
      full.replay_raw(spans);
      ASSERT_GT(spans.records.size(), 2u);
      const auto cut = spans.records[spans.records.size() / 2];
      ASSERT_GT(cut.size(), 1u);
      const auto* begin = static_cast<const char*>(full.data());
      bytes.assign(begin, static_cast<std::size_t>(cut.data() - begin) +
                              cut.size() / 2);
    }
    core::ParallelStudyOptions options;
    options.study = study_options();
    options.threads = 3;
    core::ParallelTraceStudy study(engine(), eco().abp_registry(), options,
                                   &pool);
    trace::MmapTraceReader reader(bytes.data(), bytes.size());
    EXPECT_THROW(reader.replay_batches(study), trace::TraceFormatError);
    // Leaving the scope frees the bytes, the reader and the study: a
    // cursor still running would read freed memory (ASan job).
  }
  // Every pool thread is free again: a full study on it completes.
  core::ParallelStudyOptions options;
  options.study = study_options();
  options.threads = 3;
  core::ParallelTraceStudy study(engine(), eco().abp_registry(), options,
                                 &pool);
  trace::MmapTraceReader reader(file.path);
  EXPECT_EQ(reader.replay_batches(study), record_count(sample_trace()));
  study.finish();
  EXPECT_EQ(report_of(study.view()), report_of(serial().view()));
}

TEST_F(ParallelStudyTest, ExternalPoolIsReusedAcrossStudies) {
  util::ThreadPool pool(4);
  const auto serial_report = report_of(serial().view());
  for (int run = 0; run < 2; ++run) {
    core::ParallelStudyOptions options;
    options.study = study_options();
    options.threads = 4;
    core::ParallelTraceStudy study(engine(), eco().abp_registry(), options,
                                   &pool);
    sample_trace().replay(study);
    study.finish();
    EXPECT_EQ(report_of(study.view()), serial_report);
  }
}

TEST_F(ParallelStudyTest, UndersizedPoolRejected) {
  util::ThreadPool pool(2);
  core::ParallelStudyOptions options;
  options.threads = 4;
  EXPECT_THROW(
      core::ParallelTraceStudy(engine(), eco().abp_registry(), options, &pool),
      std::invalid_argument);
}

TEST_F(ParallelStudyTest, CountsTransactionsBeforeMeta) {
  core::ParallelStudyOptions options;
  options.threads = 2;
  core::ParallelTraceStudy study(engine(), eco().abp_registry(), options);
  // No on_meta: the transactions must still be processed, and counted.
  for (std::size_t i = 0; i < 4 && i < sample_trace().http().size(); ++i) {
    study.on_http(sample_trace().http()[i]);
  }
  study.finish();
  EXPECT_EQ(study.transactions_before_meta(), 4u);
  EXPECT_GT(study.classifier_counters().processed, 0u);
}

TEST_F(ParallelStudyTest, FinishIsIdempotent) {
  core::ParallelStudyOptions options;
  options.study = study_options();
  options.threads = 2;
  core::ParallelTraceStudy study(engine(), eco().abp_registry(), options);
  sample_trace().replay(study);
  study.finish();
  const auto first = report_of(study.view());
  study.finish();
  EXPECT_EQ(report_of(study.view()), first);
}

}  // namespace
}  // namespace adscope
