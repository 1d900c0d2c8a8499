// LiveStudy — online, time-bucketed version of the trace analysis.
//
// The batch pipelines (core::TraceStudy, core::ParallelTraceStudy) answer
// "what happened in this trace" after the fact; LiveStudy answers "what
// is happening now" while records are still arriving. It reuses the same
// machinery end to end:
//
//   ingest threads ── split each batch by hash(client_ip) ──▶ one owned
//   batch per shard (HTTP strings copied once into the batch's arena)
//        │
//        └─ one BoundedQueue push per shard per batch ──▶ shard workers
//                                        │
//                      each view materialized into the shard's scratch
//                      record, fed to its open time bucket: one
//                      TraceStudy per (shard, bucket)
//                                        │
//                 seal: finish() ──on_seal──▶ snapshot store, then free
//
// Records arrive as TraceBatchSink batches (the stream server's decoder,
// MmapTraceReader::replay_batches) or one at a time through TraceSink;
// a single record travels as a batch of one. The queues bound queued
// records: a batch weighs its record count.
//
// Bucket lifecycle: a record with timestamp t lands in bucket
// t / bucket_seconds. When the watermark (max timestamp enqueued) moves
// past a bucket by more than the allowed lateness, maintain() seals it:
// the shard worker finish()es its TraceStudy, hands it to on_seal and
// frees it. LiveStudy holds only open buckets (at most seal_lag_buckets
// + 1 per shard on time-ordered input); sealed history lives in exactly
// one place, the store on_seal feeds (store::SnapshotTree), under that
// store's retention. Records for buckets at or below the highest sealed
// id are dropped and counted (late_drops) instead of reopening a bucket
// whose study was already handed off. The watermark moves only after a
// batch is in its queues, so a seal that maintain() derives from it
// queues behind every record of that batch: a time-ordered feed loses
// no record to a concurrent maintain().
//
// Identity invariant (tests/test_live_study.cpp): when no per-user
// activity spans a bucket boundary, a store fed by on_seal renders the
// buckets it retains byte-identically to a serial TraceStudy over only
// their records. Cross-boundary activity degrades gracefully: the
// classifier's referrer/redirect context restarts per bucket, exactly as
// the PR-1 shard caps do per shard.
//
// Thread safety: on_meta, on_http/on_tls and on_http_batch/on_tls_batch
// may be called from any number of ingest threads; a batch's views need
// to live only until the call returns (the split copies them out).
// Seals and flushes travel through the same queues as data, so they
// apply in order. Each shard's buckets, bucket cache and scratch record
// belong to its worker thread alone; the observability counters are
// atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "core/study.h"
#include "trace/view.h"
#include "util/annotations.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace adscope::live {

struct LiveStudyOptions {
  /// Forwarded verbatim to every bucket's TraceStudy.
  core::StudyOptions study;
  /// Shard (= worker) count; 0 picks the hardware concurrency.
  std::size_t threads = 1;
  /// Records buffered per shard before ingest threads block. A batch
  /// counts as its record count; one larger than this still enters an
  /// empty queue.
  std::size_t queue_capacity = 4096;
  /// Width of one time bucket: the resolution of the sealed history
  /// the store serves.
  std::uint64_t bucket_seconds = 300;
  /// Not read by LiveStudy: sealed buckets are freed at seal and the
  /// store's retention bounds history. Kept only because perfbench's
  /// query-serve workload sets and reads it; the next benchmark change
  /// removes it.
  std::uint64_t window_buckets = 288;
  /// Allowed lateness: maintain() keeps this many whole buckets below
  /// the watermark open, so records arriving up to seal_lag_buckets *
  /// bucket_seconds behind the newest one still land instead of being
  /// dropped as late. 0 = seal aggressively (strictly ordered input).
  std::uint64_t seal_lag_buckets = 1;
  /// Seal hook: invoked by the shard worker the moment a bucket's study
  /// is finish()ed — the feed point for the snapshot store, and the
  /// only way sealed data leaves the LiveStudy. Runs on the worker
  /// thread: the callback may read the study and must not call back
  /// into the LiveStudy. The study is freed when the callback returns;
  /// copy out (StudySnapshot::absorb) before returning.
  std::function<void(std::uint64_t bucket_id, std::size_t shard,
                     const core::TraceStudy& study)>
      on_seal;
};

class LiveStudy final : public trace::TraceSink,
                        public trace::TraceBatchSink {
 public:
  static constexpr std::uint64_t kAllBuckets = UINT64_MAX;

  /// Engine, registry (and pool, when given) must outlive the study.
  /// An external pool must have at least `threads` workers (each shard's
  /// drain loop holds one while it blocks on its queue).
  LiveStudy(const adblock::FilterEngine& engine,
            const netdb::AbpServerRegistry& registry,
            LiveStudyOptions options = {}, util::ThreadPool* pool = nullptr);
  ~LiveStudy() override;

  LiveStudy(const LiveStudy&) = delete;
  LiveStudy& operator=(const LiveStudy&) = delete;

  // TraceSink and TraceBatchSink — safe from any thread. The first meta
  // wins and fixes the aggregate shapes; later metas are counted and
  // ignored. Data records arriving before any meta are dropped (the wire
  // protocol makes this structurally impossible: every stream starts
  // with its meta block). A batch is split by shard and each shard's
  // share is queued as one item; a single record is a batch of one.
  void on_meta(const trace::TraceMeta& meta) override;
  void on_http(const trace::HttpTransaction& txn) override;
  void on_tls(const trace::TlsFlow& flow) override;
  void on_http_batch(
      std::span<const trace::HttpTransactionView> batch) override;
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override;

  /// Seal every bucket with id < `bucket`: each study is finished,
  /// handed to on_seal and freed. Later records for ids below `bucket`
  /// (or at or below the highest id sealed) are late-dropped. Applied
  /// in-queue-order by the shard workers (asynchronous — flush() to
  /// wait).
  void seal_before(std::uint64_t bucket);
  /// Seal everything, including the open bucket (end of stream).
  void seal_all() { seal_before(kAllBuckets); }

  /// Watermark-driven housekeeping: seals the buckets the watermark has
  /// passed by more than seal_lag_buckets. The serving layer calls this
  /// periodically.
  void maintain();

  /// Blocks until every record and control op enqueued before this call
  /// was processed by its shard worker.
  void flush();

  /// Close the queues and join the workers. Records pushed afterwards
  /// are dropped (closed_drops); buckets still open are discarded with
  /// the study. Idempotent.
  void close();

  // -- observability (all safe from any thread) -----------------------
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::uint64_t bucket_seconds() const noexcept {
    return options_.bucket_seconds;
  }
  /// Highest record timestamp enqueued so far (ms; 0 before any record).
  std::uint64_t watermark_ms() const noexcept {
    return watermark_ms_.load(std::memory_order_relaxed);
  }
  std::uint64_t current_bucket() const noexcept {
    return bucket_of_ms(watermark_ms());
  }
  std::uint64_t bucket_of_ms(std::uint64_t timestamp_ms) const noexcept {
    return timestamp_ms / 1000 / options_.bucket_seconds;
  }

  std::uint64_t records_ingested() const noexcept {
    return records_ingested_.load(std::memory_order_relaxed);
  }
  /// Records for already-sealed buckets.
  std::uint64_t late_drops() const noexcept {
    return late_drops_.load(std::memory_order_relaxed);
  }
  /// Data records before the first meta block.
  std::uint64_t pre_meta_drops() const noexcept {
    return pre_meta_drops_.load(std::memory_order_relaxed);
  }
  /// Records pushed after close().
  std::uint64_t closed_drops() const noexcept {
    return closed_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_drops() const noexcept {
    return late_drops() + pre_meta_drops() + closed_drops();
  }
  std::uint64_t metas_ignored() const noexcept {
    return metas_ignored_.load(std::memory_order_relaxed);
  }
  /// (shard, bucket) studies sealed (and handed to on_seal) so far.
  /// Monotone.
  std::uint64_t buckets_sealed() const noexcept {
    return buckets_sealed_.load(std::memory_order_relaxed);
  }
  /// Records currently queued across all shards (a queued seal or
  /// flush counts as one).
  std::size_t queue_depth() const;
  /// Open (not yet sealed) buckets across all shards.
  std::size_t bucket_count() const noexcept {
    return open_buckets_.load(std::memory_order_relaxed);
  }

 private:
  /// One shard's share of an ingested batch, in arrival order: HTTP
  /// views whose strings point into `arena`, or TLS flows. The arena is
  /// a heap block the batch owns, so moving the batch through the queue
  /// keeps the views valid.
  struct Batch {
    std::vector<trace::HttpTransactionView> http;
    std::vector<trace::TlsFlow> tls;
    std::unique_ptr<char[]> arena;
  };
  struct SealBefore {
    std::uint64_t bucket = 0;
  };
  struct FlushBarrier {
    util::Mutex mutex;
    util::CondVar cv;
    std::size_t remaining ADSCOPE_GUARDED_BY(mutex) = 0;
  };
  using Item = std::variant<Batch, SealBefore, std::shared_ptr<FlushBarrier>>;

  struct Shard {
    Shard(std::size_t shard_index, std::size_t queue_capacity)
        : index(shard_index), queue(queue_capacity) {}
    const std::size_t index;
    util::BoundedQueue<Item> queue;
    std::future<void> done;
    // Everything below belongs to the worker thread.
    std::map<std::uint64_t, std::unique_ptr<core::TraceStudy>> buckets;
    // Bucket ids below the floor are sealed.
    std::uint64_t floor = 0;
    // The last bucket looked up: consecutive records nearly always
    // share one. seal() clears it.
    std::uint64_t last_id = 0;
    core::TraceStudy* last_study = nullptr;
    // Every HTTP view is materialized here before the study sees it.
    trace::HttpTransaction scratch;
  };

  std::size_t shard_of(netdb::IpV4 client_ip) const noexcept;
  bool accept_records(std::size_t count);
  void enqueue(std::vector<Batch>& parts, std::uint64_t max_timestamp_ms);
  void worker_loop(Shard& shard);
  void process(Shard& shard, const Batch& batch);
  core::TraceStudy* bucket_for(Shard& shard, std::uint64_t timestamp_ms);
  void seal(Shard& shard, std::uint64_t before);
  void note_watermark(std::uint64_t timestamp_ms);

  const adblock::FilterEngine& engine_;
  const netdb::AbpServerRegistry& registry_;
  LiveStudyOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  util::Mutex meta_mutex_;
  trace::TraceMeta meta_ ADSCOPE_GUARDED_BY(meta_mutex_);
  std::atomic<bool> meta_set_{false};

  std::atomic<std::uint64_t> watermark_ms_{0};
  std::atomic<std::uint64_t> records_ingested_{0};
  std::atomic<std::uint64_t> late_drops_{0};
  std::atomic<std::uint64_t> pre_meta_drops_{0};
  std::atomic<std::uint64_t> closed_drops_{0};
  std::atomic<std::uint64_t> metas_ignored_{0};
  std::atomic<std::uint64_t> buckets_sealed_{0};
  std::atomic<std::size_t> open_buckets_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace adscope::live
