// LiveStudy — sliding-window online version of the trace analysis.
//
// The batch pipelines (core::TraceStudy, core::ParallelTraceStudy) answer
// "what happened in this trace" after the fact; LiveStudy answers "what
// is happening now" while records are still arriving. It reuses the same
// machinery end to end:
//
//   ingest threads ──BoundedQueue──▶ shard workers (hash(client_ip))
//                                        │
//                            ring of time buckets, one complete
//                            TraceStudy per (shard, bucket)
//                                        │
//   snapshot() ◀── merge() of every *sealed* bucket, shard-merge laws
//                  from PR-1 make the result order-independent
//
// Bucket lifecycle: a record with timestamp t lands in bucket
// t / bucket_seconds. When the watermark (max timestamp seen) moves past
// a bucket, maintain() seals it — its TraceStudy is finish()ed and
// becomes immutable — and buckets older than the retention window are
// evicted, so memory stays bounded no matter how long the daemon runs.
// Records for sealed or evicted buckets are dropped and counted
// (late_drops) instead of corrupting finished aggregates.
//
// Identity invariant (tests/test_live_study.cpp): when no per-user
// activity spans a bucket boundary, the merged view over the surviving
// buckets is byte-identical to a serial TraceStudy over only the
// surviving records — eviction is exact subtraction, not an estimate.
// Cross-boundary activity degrades gracefully: the classifier's
// referrer/redirect context restarts per bucket, exactly as the PR-1
// shard caps do per shard.
//
// Thread safety: on_meta/on_http/on_tls may be called from any number of
// ingest threads; control operations (seal/evict) travel through the
// same queues as data, so they apply in order; snapshot() may run
// concurrently with ingest.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "core/study.h"
#include "core/study_snapshot.h"
#include "util/annotations.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace adscope::live {

/// Owned merge of sealed buckets — unlike StudyView (which borrows from
/// a live study), a snapshot survives independently of further ingest,
/// so the HTTP handlers can render it without holding any lock. Now a
/// core type (core/study_snapshot.h) so the snapshot store can hold and
/// roll up snapshots without depending on the live layer.
using StudySnapshot = core::StudySnapshot;

struct LiveStudyOptions {
  /// Forwarded verbatim to every bucket's TraceStudy.
  core::StudyOptions study;
  /// Shard (= worker) count; 0 picks the hardware concurrency.
  std::size_t threads = 1;
  /// Records buffered per shard before ingest threads block.
  std::size_t queue_capacity = 4096;
  /// Width of one time bucket. Sliding windows are answered in whole
  /// buckets, so this is the window-resolution / memory trade-off.
  std::uint64_t bucket_seconds = 300;
  /// Buckets retained before eviction (default: 24 h at 5 min).
  std::uint64_t window_buckets = 288;
  /// Allowed lateness: maintain() keeps this many whole buckets below
  /// the watermark open, so records arriving up to seal_lag_buckets *
  /// bucket_seconds behind the newest one still land instead of being
  /// dropped as late. 0 = seal aggressively (strictly ordered input).
  std::uint64_t seal_lag_buckets = 1;
  /// Seal hook: invoked by the shard worker the moment a bucket's study
  /// is finish()ed and becomes immutable — the feed point for the
  /// snapshot store. Runs on the worker thread with the shard lock
  /// held: the callback may read the study and must not call back into
  /// the LiveStudy. The study reference is valid until the bucket is
  /// evicted; copy out (StudySnapshot::absorb) before returning.
  std::function<void(std::uint64_t bucket_id, std::size_t shard,
                     const core::TraceStudy& study)>
      on_seal;
};

class LiveStudy final : public trace::TraceSink {
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

  // TraceSink — safe from any thread. The first meta wins and fixes the
  // aggregate shapes; later metas are counted and ignored. Data records
  // arriving before any meta are dropped (the wire protocol makes this
  // structurally impossible: every stream starts with its meta block).
  void on_meta(const trace::TraceMeta& meta) override;
  void on_http(const trace::HttpTransaction& txn) override;
  void on_tls(const trace::TlsFlow& flow) override;

  /// Seal every bucket with id < `bucket`: their studies are finished
  /// and become immutable inputs for snapshot(). Applied in-queue-order
  /// by the shard workers (asynchronous — flush() to wait).
  void seal_before(std::uint64_t bucket);
  /// Seal everything, including the open bucket (end of stream).
  void seal_all() { seal_before(kAllBuckets); }
  /// Drop buckets with id < `bucket` (they stop contributing to
  /// snapshots and their memory is released). Implies a seal floor:
  /// later records for evicted buckets are late-dropped.
  void evict_before(std::uint64_t bucket);

  /// Watermark-driven housekeeping: seals buckets the watermark has
  /// passed and evicts those older than the retention window. The
  /// serving layer calls this periodically.
  void maintain();

  /// Blocks until every record and control op enqueued before this call
  /// was processed by its shard worker.
  void flush();

  /// Merge every sealed bucket with id in [min_bucket, max_bucket] into
  /// an owned snapshot. Runs concurrently with ingest.
  StudySnapshot snapshot(std::uint64_t min_bucket = 0,
                         std::uint64_t max_bucket = kAllBuckets) const;
  /// Snapshot of the trailing `window_s` seconds (whole buckets, ending
  /// at the current watermark bucket). window_s == 0 means everything.
  StudySnapshot snapshot_window(std::uint64_t window_s) const;

  /// Close the queues and join the workers. Records pushed afterwards
  /// are dropped (closed_drops). snapshot() remains valid. Idempotent.
  void close();

  // -- observability (all safe from any thread) -----------------------
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::uint64_t bucket_seconds() const noexcept {
    return options_.bucket_seconds;
  }
  std::uint64_t window_buckets() const noexcept {
    return options_.window_buckets;
  }
  /// Highest record timestamp accepted so far (ms; 0 before any record).
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
  /// Records for already-sealed or evicted buckets.
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
  std::uint64_t buckets_evicted() const noexcept {
    return buckets_evicted_.load(std::memory_order_relaxed);
  }
  /// (shard, bucket) studies sealed so far. Monotone; together with the
  /// eviction and ingest counters it fingerprints the serving state, so
  /// the HTTP layer derives ETags from it.
  std::uint64_t buckets_sealed() const noexcept {
    return buckets_sealed_.load(std::memory_order_relaxed);
  }
  /// Records currently queued across all shards.
  std::size_t queue_depth() const;
  /// Live (non-evicted) buckets across all shards.
  std::size_t bucket_count() const;

 private:
  struct Control {
    enum class Kind : std::uint8_t { kSealBefore, kEvictBefore };
    Kind kind = Kind::kSealBefore;
    std::uint64_t bucket = 0;
  };
  struct FlushBarrier {
    util::Mutex mutex;
    util::CondVar cv;
    std::size_t remaining ADSCOPE_GUARDED_BY(mutex) = 0;
  };
  using Record = std::variant<trace::HttpTransaction, trace::TlsFlow, Control,
                              std::shared_ptr<FlushBarrier>>;

  struct Bucket {
    Bucket(const adblock::FilterEngine& engine,
           const netdb::AbpServerRegistry& registry,
           const core::StudyOptions& options)
        : study(engine, registry, options) {}
    core::TraceStudy study;
    bool sealed = false;
  };

  struct Shard {
    Shard(std::size_t shard_index, std::size_t queue_capacity)
        : index(shard_index), queue(queue_capacity) {}
    const std::size_t index;
    util::BoundedQueue<Record> queue;
    std::future<void> done;
    mutable util::Mutex mutex;
    std::map<std::uint64_t, std::unique_ptr<Bucket>> buckets
        ADSCOPE_GUARDED_BY(mutex);
    // Bucket ids below the floor are sealed or evicted.
    std::uint64_t floor ADSCOPE_GUARDED_BY(mutex) = 0;
  };

  std::size_t shard_of(netdb::IpV4 client_ip) const noexcept;
  void worker_loop(Shard& shard);
  void process(Shard& shard, std::uint64_t timestamp_ms,
               const trace::HttpTransaction* txn, const trace::TlsFlow* flow);
  void apply_control(Shard& shard, const Control& control);
  void push_record(std::size_t shard, Record record);
  void note_watermark(std::uint64_t timestamp_ms);
  void broadcast(Record record);

  const adblock::FilterEngine& engine_;
  const netdb::AbpServerRegistry& registry_;
  LiveStudyOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable util::Mutex meta_mutex_;
  trace::TraceMeta meta_ ADSCOPE_GUARDED_BY(meta_mutex_);
  std::atomic<bool> meta_set_{false};

  std::atomic<std::uint64_t> watermark_ms_{0};
  std::atomic<std::uint64_t> records_ingested_{0};
  std::atomic<std::uint64_t> late_drops_{0};
  std::atomic<std::uint64_t> pre_meta_drops_{0};
  std::atomic<std::uint64_t> closed_drops_{0};
  std::atomic<std::uint64_t> metas_ignored_{0};
  std::atomic<std::uint64_t> buckets_evicted_{0};
  std::atomic<std::uint64_t> buckets_sealed_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace adscope::live
