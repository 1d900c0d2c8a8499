#include "live/live_study.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"

namespace adscope::live {

// ---------------------------------------------------------------------------
// LiveStudy

LiveStudy::LiveStudy(const adblock::FilterEngine& engine,
                     const netdb::AbpServerRegistry& registry,
                     LiveStudyOptions options, util::ThreadPool* pool)
    : engine_(engine), registry_(registry), options_(options) {
  if (options_.bucket_seconds == 0) options_.bucket_seconds = 1;
  const auto shards = util::resolve_thread_count(options_.threads);
  if (pool != nullptr) {
    if (pool->thread_count() < shards) {
      throw std::invalid_argument(
          "LiveStudy: pool smaller than shard count (drain loops would "
          "starve each other)");
    }
    pool_ = pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(shards);
    pool_ = owned_pool_.get();
  }

  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options_.queue_capacity));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->done = pool_->submit([this, s] { worker_loop(*s); });
  }
}

LiveStudy::~LiveStudy() {
  try {
    close();
  } catch (...) {
    // Worker exceptions surface through close() for callers that care;
    // the destructor must not throw.
  }
}

std::size_t LiveStudy::shard_of(netdb::IpV4 client_ip) const noexcept {
  // Same FNV spreading as ParallelTraceStudy: client addresses share
  // prefixes, plain modulo would lump whole subnets together.
  return util::fnv1a_u64(client_ip) % shards_.size();
}

void LiveStudy::note_watermark(std::uint64_t timestamp_ms) {
  auto seen = watermark_ms_.load(std::memory_order_relaxed);
  while (timestamp_ms > seen &&
         !watermark_ms_.compare_exchange_weak(seen, timestamp_ms,
                                              std::memory_order_relaxed)) {
  }
}

void LiveStudy::on_meta(const trace::TraceMeta& meta) {
  util::MutexLock lock(meta_mutex_);
  if (meta_set_.load(std::memory_order_relaxed)) {
    metas_ignored_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  meta_ = meta;
  meta_set_.store(true, std::memory_order_release);
}

void LiveStudy::push_record(std::size_t shard, Record record) {
  if (!shards_[shard]->queue.push(std::move(record))) {
    closed_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void LiveStudy::on_http(const trace::HttpTransaction& txn) {
  if (!meta_set_.load(std::memory_order_acquire)) {
    pre_meta_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  note_watermark(txn.timestamp_ms);
  records_ingested_.fetch_add(1, std::memory_order_relaxed);
  push_record(shard_of(txn.client_ip), Record{txn});
}

void LiveStudy::on_tls(const trace::TlsFlow& flow) {
  if (!meta_set_.load(std::memory_order_acquire)) {
    pre_meta_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  note_watermark(flow.timestamp_ms);
  records_ingested_.fetch_add(1, std::memory_order_relaxed);
  push_record(shard_of(flow.client_ip), Record{flow});
}

void LiveStudy::broadcast(Record record) {
  for (std::size_t i = 0; i < shards_.size(); ++i) push_record(i, record);
}

void LiveStudy::seal_before(std::uint64_t bucket) {
  broadcast(Record{SealBefore{bucket}});
}

void LiveStudy::maintain() {
  if (records_ingested() == 0) return;
  const auto open = current_bucket();
  if (open > options_.seal_lag_buckets) {
    seal_before(open - options_.seal_lag_buckets);
  }
}

void LiveStudy::flush() {
  auto barrier = std::make_shared<FlushBarrier>();
  std::size_t expected = 0;
  for (auto& shard : shards_) {
    // Count only queues that accept the barrier: after close() the
    // workers have already drained everything, nothing to wait for.
    {
      util::MutexLock lock(barrier->mutex);
      ++barrier->remaining;
    }
    if (shard->queue.push(Record{barrier})) {
      ++expected;
    } else {
      util::MutexLock lock(barrier->mutex);
      --barrier->remaining;
    }
  }
  if (expected == 0) return;
  util::MutexLock lock(barrier->mutex);
  while (barrier->remaining != 0) barrier->cv.wait(barrier->mutex);
}

void LiveStudy::worker_loop(Shard& shard) {
  Record record;
  while (shard.queue.pop(record)) {
    if (auto* txn = std::get_if<trace::HttpTransaction>(&record)) {
      process(shard, txn->timestamp_ms, txn, nullptr);
    } else if (auto* flow = std::get_if<trace::TlsFlow>(&record)) {
      process(shard, flow->timestamp_ms, nullptr, flow);
    } else if (auto* seal_op = std::get_if<SealBefore>(&record)) {
      seal(shard, seal_op->bucket);
    } else {
      auto& barrier = *std::get<std::shared_ptr<FlushBarrier>>(record);
      {
        util::MutexLock lock(barrier.mutex);
        --barrier.remaining;
      }
      barrier.cv.notify_all();
    }
  }
  // Queue closed and drained: open buckets are discarded with the
  // study (the daemon seals before it closes).
}

void LiveStudy::process(Shard& shard, std::uint64_t timestamp_ms,
                        const trace::HttpTransaction* txn,
                        const trace::TlsFlow* flow) {
  const auto bucket_id = bucket_of_ms(timestamp_ms);
  if (bucket_id < shard.floor) {
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = shard.buckets.find(bucket_id);
  if (it == shard.buckets.end()) {
    auto study = std::make_unique<core::TraceStudy>(engine_, registry_,
                                                    options_.study);
    {
      // The push path guarantees meta_ was registered before any data
      // record was enqueued.
      util::MutexLock meta_lock(meta_mutex_);
      study->on_meta(meta_);
    }
    it = shard.buckets.emplace(bucket_id, std::move(study)).first;
    open_buckets_.fetch_add(1, std::memory_order_relaxed);
  }
  if (txn != nullptr) {
    it->second->on_http(*txn);
  } else {
    it->second->on_tls(*flow);
  }
}

void LiveStudy::seal(Shard& shard, std::uint64_t before) {
  auto it = shard.buckets.begin();
  while (it != shard.buckets.end() && it->first < before) {
    auto& [id, study] = *it;
    study->finish();
    buckets_sealed_.fetch_add(1, std::memory_order_relaxed);
    if (options_.on_seal) options_.on_seal(id, shard.index, *study);
    // A sealed id never reopens, so the store never sees it twice.
    shard.floor = std::max(shard.floor, id + 1);
    it = shard.buckets.erase(it);
    open_buckets_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (before != kAllBuckets) shard.floor = std::max(shard.floor, before);
}

void LiveStudy::close() {
  if (closed_.exchange(true)) {
    for (auto& shard : shards_) {
      if (shard->done.valid()) shard->done.get();
    }
    return;
  }
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) shard->done.get();  // rethrows worker errors
}

std::size_t LiveStudy::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) depth += shard->queue.size();
  return depth;
}

}  // namespace adscope::live
