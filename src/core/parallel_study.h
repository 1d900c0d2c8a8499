// ParallelTraceStudy — sharded multi-core version of TraceStudy.
//
// Every piece of per-user pipeline state (the classifier's ReferrerMap,
// UserIndex, PageSegmenter) is keyed by client_ip, so the trace can be
// partitioned by fnv1a(client_ip) % nshards without changing any
// per-user processing order. Each shard runs a complete serial
// TraceStudy on a pool worker; finish() merges the shard aggregates in
// shard-index order. A shard's study is fed one of two ways:
//
//  * Cursors over a mapping. Handed to MmapTraceReader::replay_batches,
//    the study takes the replay over (TraceBatchSink::replay_mapped):
//    every worker opens its own reader over the mapped bytes, decodes
//    every record (the dictionary spans the whole stream), skips the
//    ones whose client hashes to another shard, and materializes the
//    rest into one reused scratch record for its study. Nothing is
//    queued, allocated per record or handed between threads; decode is
//    repeated per shard, and costs a fraction of the study work.
//    replay_batches returns once every cursor has finished its study.
//  * Queues, for everything else (streamed and pcap sources, per-record
//    TraceSink callers, wrappers that do not forward the hook). The
//    calling thread routes each record into its shard's pending batch
//    and pushes batches through a bounded queue (backpressure keeps
//    memory flat when a shard falls behind); the drain loops start on
//    the first record, so a study fed by cursors never occupies pool
//    threads with them. A batch also ends at every switch between HTTP
//    and TLS records for that shard, so on real traces batches stay
//    far below dispatch_batch_records.
//
// A mapped replay is the whole of a study's input: feeding records
// after it throws std::logic_error. Once records have gone through the
// queues, a later mapped replay declines the hook and is queued too, so
// its records stay in order behind theirs.
//
// Determinism guarantee: the merged result is identical to a serial
// TraceStudy over the same trace — per-user record order is preserved
// inside a shard on both feeds, every aggregate's merge() is a
// commutative/associative sum, and the fixed merge order makes even
// hash-map iteration consequences reproducible. The one caveat: the
// classifier's and segmenter's per-shard user caps
// (ClassifierOptions::max_users, PageSegmenter::Options::max_users)
// trigger later than in a serial run because each shard sees fewer
// users; below the caps (the normal case), reports are byte-identical.
// Asserted in tests/test_parallel_study.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/study.h"
#include "trace/view.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace adscope::core {

struct ParallelStudyOptions {
  /// Forwarded verbatim to every shard's TraceStudy.
  StudyOptions study;
  /// Worker (= shard) count; 0 picks the hardware concurrency.
  std::size_t threads = 0;
  /// Queue feed only: records buffered per shard before the feeding
  /// thread blocks (rounded to whole dispatch batches, minimum two).
  std::size_t queue_capacity = 4096;
  /// Queue feed only: the most records pushed to a shard's queue as one
  /// batch (a kind switch ends a batch sooner).
  std::size_t dispatch_batch_records = 256;
};

class ParallelTraceStudy final : public trace::TraceSink,
                                 public trace::TraceBatchSink {
 public:
  /// `pool` optionally supplies reusable worker threads (it must have
  /// at least `threads` of them, or the shard drain loops could starve
  /// each other — enforced with std::invalid_argument). Without a pool
  /// the study owns one sized to the shard count. Engine, registry and
  /// pool must outlive the study.
  ParallelTraceStudy(const adblock::FilterEngine& engine,
                     const netdb::AbpServerRegistry& registry,
                     ParallelStudyOptions options = {},
                     util::ThreadPool* pool = nullptr);
  ~ParallelTraceStudy() override;

  ParallelTraceStudy(const ParallelTraceStudy&) = delete;
  ParallelTraceStudy& operator=(const ParallelTraceStudy&) = delete;

  // TraceSink + TraceBatchSink: the queue feed (call from one thread;
  // records fan out to the shards). The single on_meta overrides both
  // bases.
  void on_meta(const trace::TraceMeta& meta) override;
  void on_http(const trace::HttpTransaction& txn) override;
  void on_http_owned(trace::HttpTransaction&& txn) override;
  void on_tls(const trace::TlsFlow& flow) override;
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override;
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override;

  /// The cursor feed: runs one cursor per shard over `reader`'s bytes
  /// on the pool and returns, after every cursor has joined, the record
  /// count a serial replay returns. Declines (std::nullopt) once the
  /// queue feed has started. A cursor's TraceFormatError is rethrown
  /// after all of them have stopped.
  std::optional<std::uint64_t> replay_mapped(
      const trace::MmapTraceReader& reader) override;

  /// Close the shard queues, join the workers, merge. Idempotent.
  void finish();

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Records (HTTP + TLS) each shard's study received, in shard order:
  /// how evenly client_ip hashing split the trace. Valid after finish().
  std::vector<std::uint64_t> shard_records() const;

  // Merged per-section results; valid after finish().
  const trace::TraceMeta& meta() const noexcept { return meta_; }
  const UserIndex& users() const noexcept { return users_; }
  const TrafficStats& traffic() const { return *traffic_; }
  const WhitelistAnalysis& whitelist() const noexcept { return whitelist_; }
  const InfraAnalysis& infra() const noexcept { return infra_; }
  const RtbAnalysis& rtb() const noexcept { return rtb_; }
  const PageViewStats& page_views() const noexcept { return page_views_; }
  const ClassifierCounters& classifier_counters() const noexcept {
    return classifier_counters_;
  }
  std::uint64_t https_flows() const noexcept { return https_flows_; }
  std::uint64_t transactions_before_meta() const noexcept {
    return transactions_before_meta_;
  }

  InferenceResult inference() const;
  ConfigurationReport configurations(const InferenceResult& inference) const;

  /// Same window the serial study exposes — feeds the shared report
  /// renderers. Valid after finish().
  StudyView view() const noexcept;

 private:
  /// A queue item is a whole batch; meta is broadcast as its own item.
  using Item = std::variant<trace::TraceMeta,
                            std::vector<trace::HttpTransaction>,
                            std::vector<trace::TlsFlow>>;

  struct Shard {
    explicit Shard(const adblock::FilterEngine& engine,
                   const netdb::AbpServerRegistry& registry,
                   const StudyOptions& options, std::size_t queue_items)
        : study(engine, registry, options), queue(queue_items) {}

    TraceStudy study;
    std::uint64_t records = 0;  // written by whichever thread feeds study
    util::BoundedQueue<Item> queue;
    std::future<void> done;
    // Producer-side accumulators (touched only by the feeding thread).
    std::vector<trace::HttpTransaction> pending_http;
    std::vector<trace::TlsFlow> pending_tls;
  };

  /// Which feed the shards' studies have (the first call decides).
  enum class Feed { kNone, kQueues, kCursors };

  Shard& shard_for(netdb::IpV4 client_ip);
  /// Starts the drain loops on the first queue-fed call.
  void start_queues();
  void flush_http(Shard& shard);
  void flush_tls(Shard& shard);
  void merge_shards();

  ParallelStudyOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  // owned_pool_.get() or the caller's
  std::vector<std::unique_ptr<Shard>> shards_;
  Feed feed_ = Feed::kNone;

  // Merged aggregates (filled by finish()).
  trace::TraceMeta meta_;
  UserIndex users_;
  std::unique_ptr<TrafficStats> traffic_;
  WhitelistAnalysis whitelist_;
  InfraAnalysis infra_;
  RtbAnalysis rtb_;
  PageViewStats page_views_;
  ClassifierCounters classifier_counters_;
  std::uint64_t https_flows_ = 0;
  std::uint64_t transactions_before_meta_ = 0;
  bool finished_ = false;
};

}  // namespace adscope::core
