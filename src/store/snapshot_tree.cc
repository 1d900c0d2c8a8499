#include "store/snapshot_tree.h"

namespace adscope::store {

SnapshotTree::SnapshotTree(SnapshotTreeOptions options)
    : options_(std::move(options)) {
  if (options_.bucket_seconds == 0) options_.bucket_seconds = 1;
}

core::StudySnapshot SnapshotTree::make_snapshot_locked() const {
  core::StudySnapshot snapshot(meta_, options_.study);
  snapshot.bucket_seconds = options_.bucket_seconds;
  return snapshot;
}

void SnapshotTree::ingest(std::uint64_t bucket_id, std::size_t shard,
                          const core::TraceStudy& study) {
  util::MutexLock lock(mutex_);
  if (!meta_set_) {
    meta_ = study.meta();
    meta_set_ = true;
  }

  // Leaf: an owned copy of the sealed study's aggregates.
  core::StudySnapshot leaf(meta_, options_.study);
  leaf.bucket_seconds = options_.bucket_seconds;
  leaf.absorb(study);
  leaf.note_bucket(bucket_id);

  // Materialized rollups first (they must see evicted buckets too, and
  // the leaf is about to be moved into the tree).
  const auto day = bucket_id * options_.bucket_seconds / 86400;
  if (auto it = users_daily_.find(day); it != users_daily_.end()) {
    it->second.merge(leaf);
  } else {
    core::StudySnapshot rollup = make_snapshot_locked();
    rollup.merge(leaf);
    users_daily_.emplace(day, std::move(rollup));
  }
  if (infra_cumulative_.has_value()) {
    infra_cumulative_->merge(leaf);
  } else {
    core::StudySnapshot rollup = make_snapshot_locked();
    rollup.merge(leaf);
    infra_cumulative_.emplace(std::move(rollup));
  }

  leaves_ingested_.fetch_add(1, std::memory_order_relaxed);
  // A slower shard's leaf for a bucket retention already evicted counts
  // in the rollups only: re-inserting it would evict the bucket twice.
  if (bucket_id >= eviction_floor_) {
    buckets_[bucket_id].insert_or_assign(shard, std::move(leaf));
  }

  // Retention: the newest insert pays for evicting the oldest buckets.
  if (options_.retention_buckets > 0) {
    while (buckets_.size() > options_.retention_buckets) {
      eviction_floor_ = buckets_.begin()->first + 1;
      buckets_.erase(buckets_.begin());
      buckets_evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  bump_epoch();
}

core::StudySnapshot SnapshotTree::merge(
    std::uint64_t min_bucket, std::uint64_t max_bucket,
    std::optional<std::size_t> shard) const {
  util::MutexLock lock(mutex_);
  core::StudySnapshot merged = make_snapshot_locked();
  // Bucket-major, shard-minor: every aggregate's merge() is commutative
  // and associative (the PR-1 merge-law property tests), so this order
  // renders byte-identically to absorbing the same sealed studies in any
  // other order — the invariant the store identity tests pin. Each leaf
  // carries its bucket id, so the shards of one bucket count once in
  // buckets_merged.
  for (auto it = buckets_.lower_bound(min_bucket); it != buckets_.end();
       ++it) {
    if (it->first > max_bucket) break;
    for (const auto& [shard_id, leaf] : it->second) {
      if (shard.has_value() && shard_id != *shard) continue;
      merged.merge(leaf);
    }
  }
  return merged;
}

std::optional<core::StudySnapshot> SnapshotTree::users_daily(
    std::uint64_t day) const {
  util::MutexLock lock(mutex_);
  const auto it = users_daily_.find(day);
  if (it == users_daily_.end()) return std::nullopt;
  core::StudySnapshot copy = make_snapshot_locked();
  copy.merge(it->second);
  return copy;
}

std::vector<std::uint64_t> SnapshotTree::users_daily_days() const {
  util::MutexLock lock(mutex_);
  std::vector<std::uint64_t> days;
  days.reserve(users_daily_.size());
  for (const auto& [day, rollup] : users_daily_) days.push_back(day);
  return days;
}

core::StudySnapshot SnapshotTree::infra_cumulative() const {
  util::MutexLock lock(mutex_);
  core::StudySnapshot copy = make_snapshot_locked();
  if (infra_cumulative_.has_value()) copy.merge(*infra_cumulative_);
  return copy;
}

std::size_t SnapshotTree::leaf_count() const {
  util::MutexLock lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, shards] : buckets_) count += shards.size();
  return count;
}

std::size_t SnapshotTree::bucket_count() const {
  util::MutexLock lock(mutex_);
  return buckets_.size();
}

std::optional<std::uint64_t> SnapshotTree::min_bucket() const {
  util::MutexLock lock(mutex_);
  if (buckets_.empty()) return std::nullopt;
  return buckets_.begin()->first;
}

std::optional<std::uint64_t> SnapshotTree::max_bucket() const {
  util::MutexLock lock(mutex_);
  if (buckets_.empty()) return std::nullopt;
  return buckets_.rbegin()->first;
}

std::vector<SnapshotTree::BucketInfo> SnapshotTree::index() const {
  util::MutexLock lock(mutex_);
  std::vector<BucketInfo> info;
  info.reserve(buckets_.size());
  for (const auto& [id, shards] : buckets_) {
    BucketInfo row;
    row.id = id;
    row.shards = shards.size();
    for (const auto& [shard_id, leaf] : shards) {
      row.records += leaf.view().traffic->requests() + leaf.https_flows();
    }
    info.push_back(row);
  }
  return info;
}

}  // namespace adscope::store
