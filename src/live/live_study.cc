#include "live/live_study.h"

#include <algorithm>
#include <cstring>
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

bool LiveStudy::accept_records(std::size_t count) {
  if (!meta_set_.load(std::memory_order_acquire)) {
    pre_meta_drops_.fetch_add(count, std::memory_order_relaxed);
    return false;
  }
  records_ingested_.fetch_add(count, std::memory_order_relaxed);
  return true;
}

void LiveStudy::enqueue(std::vector<Batch>& parts,
                        std::uint64_t max_timestamp_ms) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto records = parts[i].http.size() + parts[i].tls.size();
    if (records == 0) continue;
    if (!shards_[i]->queue.push(Item{std::move(parts[i])}, records)) {
      closed_drops_.fetch_add(records, std::memory_order_relaxed);
    }
  }
  // Only now may maintain() see this batch's newest timestamp: a seal it
  // derives from the watermark then queues behind every record of the
  // batch, including those of older buckets.
  note_watermark(max_timestamp_ms);
}

void LiveStudy::on_http(const trace::HttpTransaction& txn) {
  const auto view = trace::as_view(txn);
  on_http_batch({&view, 1});
}

void LiveStudy::on_tls(const trace::TlsFlow& flow) { on_tls_batch({&flow, 1}); }

void LiveStudy::on_http_batch(
    std::span<const trace::HttpTransactionView> batch) {
  if (batch.empty() || !accept_records(batch.size())) return;
  const auto string_bytes = [](const trace::HttpTransactionView& view) {
    return view.host.size() + view.uri.size() + view.referer.size() +
           view.user_agent.size() + view.content_type.size() +
           view.location.size() + view.payload.size();
  };

  // Size each shard's share, give it one arena for its strings, then
  // copy every view's strings in and re-point the view at the copies.
  struct Share {
    std::size_t records = 0;
    std::size_t bytes = 0;
    char* next = nullptr;
  };
  std::vector<Share> shares(shards_.size());
  std::uint64_t max_timestamp_ms = 0;
  for (const auto& view : batch) {
    auto& share = shares[shard_of(view.client_ip)];
    ++share.records;
    share.bytes += string_bytes(view);
    max_timestamp_ms = std::max(max_timestamp_ms, view.timestamp_ms);
  }
  std::vector<Batch> parts(shards_.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (shares[i].records == 0) continue;
    parts[i].http.reserve(shares[i].records);
    if (shares[i].bytes == 0) continue;
    parts[i].arena = std::make_unique_for_overwrite<char[]>(shares[i].bytes);
    shares[i].next = parts[i].arena.get();
  }
  for (const auto& view : batch) {
    const auto shard = shard_of(view.client_ip);
    char*& next = shares[shard].next;
    const auto copy = [&next](std::string_view text) {
      if (text.empty()) return std::string_view{};
      std::memcpy(next, text.data(), text.size());
      const std::string_view copied(next, text.size());
      next += text.size();
      return copied;
    };
    auto& owned = parts[shard].http.emplace_back(view);
    owned.host = copy(view.host);
    owned.uri = copy(view.uri);
    owned.referer = copy(view.referer);
    owned.user_agent = copy(view.user_agent);
    owned.content_type = copy(view.content_type);
    owned.location = copy(view.location);
    owned.payload = copy(view.payload);
  }
  enqueue(parts, max_timestamp_ms);
}

void LiveStudy::on_tls_batch(std::span<const trace::TlsFlowView> batch) {
  if (batch.empty() || !accept_records(batch.size())) return;
  std::vector<std::size_t> counts(shards_.size(), 0);
  std::uint64_t max_timestamp_ms = 0;
  for (const auto& flow : batch) {
    ++counts[shard_of(flow.client_ip)];
    max_timestamp_ms = std::max(max_timestamp_ms, flow.timestamp_ms);
  }
  std::vector<Batch> parts(shards_.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].tls.reserve(counts[i]);
  }
  for (const auto& flow : batch) {
    parts[shard_of(flow.client_ip)].tls.push_back(flow);
  }
  enqueue(parts, max_timestamp_ms);
}

void LiveStudy::seal_before(std::uint64_t bucket) {
  for (auto& shard : shards_) shard->queue.push(Item{SealBefore{bucket}});
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
    if (shard->queue.push(Item{barrier})) {
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
  Item item;
  while (shard.queue.pop(item)) {
    if (const auto* batch = std::get_if<Batch>(&item)) {
      process(shard, *batch);
    } else if (const auto* seal_op = std::get_if<SealBefore>(&item)) {
      seal(shard, seal_op->bucket);
    } else {
      auto& barrier = *std::get<std::shared_ptr<FlushBarrier>>(item);
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

void LiveStudy::process(Shard& shard, const Batch& batch) {
  for (const auto& view : batch.http) {
    if (auto* study = bucket_for(shard, view.timestamp_ms)) {
      trace::materialize(view, shard.scratch);
      study->on_http(shard.scratch);
    }
  }
  for (const auto& flow : batch.tls) {
    if (auto* study = bucket_for(shard, flow.timestamp_ms)) study->on_tls(flow);
  }
}

core::TraceStudy* LiveStudy::bucket_for(Shard& shard,
                                        std::uint64_t timestamp_ms) {
  const auto bucket_id = bucket_of_ms(timestamp_ms);
  // The cached bucket is open: seal() clears the cache.
  if (shard.last_study != nullptr && bucket_id == shard.last_id) {
    return shard.last_study;
  }
  if (bucket_id < shard.floor) {
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
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
  shard.last_id = bucket_id;
  shard.last_study = it->second.get();
  return shard.last_study;
}

void LiveStudy::seal(Shard& shard, std::uint64_t before) {
  shard.last_study = nullptr;
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
