// SnapshotTree — the in-memory time/shard/aggregate hierarchy of sealed
// study snapshots.
//
// The serving data model behind /query (ugreg's datatree shape, grown
// over StudySnapshots instead of raw JSON):
//
//   UTC time bucket ──▶ shard ──▶ leaf StudySnapshot
//        │                          (one sealed (bucket, shard) study,
//        │                           copied out at seal time)
//        └─ named aggregates (summary/traffic/users/infra) are virtual:
//           resolved at query time by merging the selected leaves and
//           rendering the requested view.
//
// Feeding: LiveStudy's on_seal hook (and `adscope query` offline) calls
// ingest() the moment a bucket study is finish()ed; LiveStudy frees the
// study when the hook returns, so the tree holds the only copy of sealed
// history. Retention (retention_buckets, adscoped's --window-s) is the
// one memory budget for it.
//
// Epoch: a monotone counter bumped on every mutation (ingest or
// eviction). Response caching and ETags key on it: equal epoch (plus
// equal live ingest counters) implies byte-identical responses.
//
// Materialized rollups: cross-window aggregations that would be
// expensive to merge on demand are maintained incrementally on ingest —
// per-UTC-day user rollups (daily indicator-class ECDFs) and the
// cumulative infrastructure rollup (AS rankings since store start,
// deliberately unaffected by retention).
//
// Thread safety: all methods are safe from any thread (one mutex; leaf
// merges happen outside hot ingest paths — seals are rare relative to
// records).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/study_snapshot.h"
#include "util/annotations.h"

namespace adscope::store {

struct SnapshotTreeOptions {
  /// Aggregate shapes for leaf snapshots; must match the studies fed in.
  core::StudyOptions study;
  /// Width of one time bucket (same clock as the feeding LiveStudy).
  std::uint64_t bucket_seconds = 300;
  /// Distinct time buckets retained; older buckets (every shard leaf)
  /// are evicted when a new bucket pushes the count past this. 0 =
  /// unbounded.
  std::uint64_t retention_buckets = 0;
};

class SnapshotTree {
 public:
  explicit SnapshotTree(SnapshotTreeOptions options);

  SnapshotTree(const SnapshotTree&) = delete;
  SnapshotTree& operator=(const SnapshotTree&) = delete;

  /// Copies the sealed study into the (bucket, shard) leaf and updates
  /// the materialized rollups. Called from LiveStudy's shard workers,
  /// concurrently — must stay callback-safe: no calls back into the
  /// live layer.
  void ingest(std::uint64_t bucket_id, std::size_t shard,
              const core::TraceStudy& study);

  /// Merge every retained leaf with bucket id in [min_bucket,
  /// max_bucket], optionally restricted to one shard. Always returns a
  /// snapshot (zero aggregates when nothing matches), stamped with
  /// bucket_seconds; the caller stamps the live ingest counters.
  core::StudySnapshot merge(std::uint64_t min_bucket,
                            std::uint64_t max_bucket,
                            std::optional<std::size_t> shard) const;

  /// Materialized per-day users rollup (day = days since epoch, UTC).
  std::optional<core::StudySnapshot> users_daily(std::uint64_t day) const;
  /// Days with a materialized users rollup, ascending.
  std::vector<std::uint64_t> users_daily_days() const;
  /// Cumulative infra rollup since store start (ignores retention).
  core::StudySnapshot infra_cumulative() const;

  // -- observability ---------------------------------------------------
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t bucket_seconds() const noexcept {
    return options_.bucket_seconds;
  }
  std::uint64_t retention_buckets() const noexcept {
    return options_.retention_buckets;
  }
  /// (bucket, shard) leaves currently held.
  std::size_t leaf_count() const;
  /// Distinct time buckets currently held.
  std::size_t bucket_count() const;
  std::uint64_t leaves_ingested() const noexcept {
    return leaves_ingested_.load(std::memory_order_relaxed);
  }
  std::uint64_t buckets_evicted() const noexcept {
    return buckets_evicted_.load(std::memory_order_relaxed);
  }
  /// Oldest/newest retained bucket id; nullopt when empty.
  std::optional<std::uint64_t> min_bucket() const;
  std::optional<std::uint64_t> max_bucket() const;

  struct BucketInfo {
    std::uint64_t id = 0;
    std::size_t shards = 0;
    std::uint64_t records = 0;  // HTTP requests + TLS flows in the bucket
  };
  /// Per-bucket index for /query/buckets, ascending by id.
  std::vector<BucketInfo> index() const;

 private:
  using ShardMap = std::map<std::size_t, core::StudySnapshot>;

  core::StudySnapshot make_snapshot_locked() const
      ADSCOPE_REQUIRES(mutex_);
  void bump_epoch() noexcept {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  SnapshotTreeOptions options_;

  mutable util::Mutex mutex_;
  std::map<std::uint64_t, ShardMap> buckets_ ADSCOPE_GUARDED_BY(mutex_);
  /// Meta of the first ingested study — the aggregate shape for merged
  /// snapshots (one trace world per tree).
  trace::TraceMeta meta_ ADSCOPE_GUARDED_BY(mutex_);
  bool meta_set_ ADSCOPE_GUARDED_BY(mutex_) = false;
  /// Materialized rollups, maintained incrementally on ingest.
  std::map<std::uint64_t, core::StudySnapshot> users_daily_
      ADSCOPE_GUARDED_BY(mutex_);
  std::optional<core::StudySnapshot> infra_cumulative_
      ADSCOPE_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> leaves_ingested_{0};
  std::atomic<std::uint64_t> buckets_evicted_{0};
};

}  // namespace adscope::store
