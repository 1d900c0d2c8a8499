#include "core/parallel_study.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/mmap_reader.h"
#include "util/hash.h"

namespace adscope::core {

namespace {

std::size_t shard_of(netdb::IpV4 client_ip, std::size_t shards) noexcept {
  // FNV over the IP (not the raw value): client addresses share prefixes,
  // and modulo on sequential integers would lump whole subnets together.
  return util::fnv1a_u64(client_ip) % shards;
}

/// One shard's cursor. It sees every record of the mapping (the
/// dictionary is defined inline across all of them) but feeds its study
/// only the ones whose client hashes to its shard, materializing each
/// into one reused scratch record.
class ShardCursor final : public trace::TraceBatchSink {
 public:
  ShardCursor(TraceStudy& study, std::size_t shard, std::size_t shards,
              std::uint64_t& records)
      : study_(study), shard_(shard), shards_(shards), records_(records) {}

  void on_meta(const trace::TraceMeta& meta) override { study_.on_meta(meta); }
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override {
    for (const auto& view : batch) {
      if (shard_of(view.client_ip, shards_) != shard_) continue;
      trace::materialize(view, scratch_);
      study_.on_http(scratch_);
      ++records_;
    }
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    for (const auto& flow : batch) {
      if (shard_of(flow.client_ip, shards_) != shard_) continue;
      study_.on_tls(flow);
      ++records_;
    }
  }

 private:
  TraceStudy& study_;
  std::size_t shard_;
  std::size_t shards_;
  std::uint64_t& records_;
  trace::HttpTransaction scratch_;
};

/// Waits for every future still valid, so no task outlives the frame
/// whose locals it references — also when submit() or a task throws.
struct JoinOnExit {
  std::vector<std::future<void>>& tasks;
  ~JoinOnExit() {
    for (auto& task : tasks) {
      if (task.valid()) task.wait();
    }
  }
};

}  // namespace

ParallelTraceStudy::ParallelTraceStudy(const adblock::FilterEngine& engine,
                                       const netdb::AbpServerRegistry& registry,
                                       ParallelStudyOptions options,
                                       util::ThreadPool* pool)
    : options_(options) {
  if (options_.dispatch_batch_records == 0) options_.dispatch_batch_records = 1;
  const auto shards = util::resolve_thread_count(options.threads);
  if (pool != nullptr) {
    if (pool->thread_count() < shards) {
      throw std::invalid_argument(
          "ParallelTraceStudy: pool smaller than shard count (drain loops "
          "would starve each other)");
    }
    pool_ = pool;
  } else {
    owned_pool_ = std::make_unique<util::ThreadPool>(shards);
    pool_ = owned_pool_.get();
  }

  // queue_capacity is a record budget; the queue holds batches, so
  // convert (two items minimum so producer and consumer can overlap).
  const auto queue_items = std::max<std::size_t>(
      2, options_.queue_capacity / options_.dispatch_batch_records);

  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(engine, registry, options_.study,
                                              queue_items));
  }
}

ParallelTraceStudy::~ParallelTraceStudy() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a worker exception was already
    // swallowed here — finish() explicitly rethrows for callers that
    // care.
  }
}

ParallelTraceStudy::Shard& ParallelTraceStudy::shard_for(
    netdb::IpV4 client_ip) {
  return *shards_[shard_of(client_ip, shards_.size())];
}

void ParallelTraceStudy::start_queues() {
  if (feed_ == Feed::kCursors) {
    throw std::logic_error(
        "ParallelTraceStudy: records fed after a mapped replay (its "
        "shards are already finished)");
  }
  feed_ = Feed::kQueues;
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->pending_http.reserve(options_.dispatch_batch_records);
    s->pending_tls.reserve(options_.dispatch_batch_records);
    s->done = pool_->submit([s] {
      Item item;
      while (s->queue.pop(item)) {
        std::visit(
            [s](const auto& batch) {
              using T = std::decay_t<decltype(batch)>;
              if constexpr (std::is_same_v<T, trace::TraceMeta>) {
                s->study.on_meta(batch);
              } else if constexpr (std::is_same_v<
                                       T,
                                       std::vector<trace::HttpTransaction>>) {
                for (const auto& txn : batch) s->study.on_http(txn);
                s->records += batch.size();
              } else {
                for (const auto& flow : batch) s->study.on_tls(flow);
                s->records += batch.size();
              }
            },
            item);
      }
      s->study.finish();
    });
  }
}

void ParallelTraceStudy::flush_http(Shard& shard) {
  if (shard.pending_http.empty()) return;
  shard.queue.push(Item{std::move(shard.pending_http)});
  shard.pending_http = {};
  shard.pending_http.reserve(options_.dispatch_batch_records);
}

void ParallelTraceStudy::flush_tls(Shard& shard) {
  if (shard.pending_tls.empty()) return;
  shard.queue.push(Item{std::move(shard.pending_tls)});
  shard.pending_tls = {};
  shard.pending_tls.reserve(options_.dispatch_batch_records);
}

void ParallelTraceStudy::on_meta(const trace::TraceMeta& meta) {
  if (feed_ != Feed::kQueues) start_queues();
  meta_ = meta;
  for (auto& shard : shards_) {
    flush_http(*shard);
    flush_tls(*shard);
    shard->queue.push(Item{meta});
  }
}

void ParallelTraceStudy::on_http(const trace::HttpTransaction& txn) {
  if (feed_ != Feed::kQueues) start_queues();
  Shard& shard = shard_for(txn.client_ip);
  flush_tls(shard);  // preserve per-shard record order across kinds
  shard.pending_http.push_back(txn);
  if (shard.pending_http.size() >= options_.dispatch_batch_records) {
    flush_http(shard);
  }
}

void ParallelTraceStudy::on_http_owned(trace::HttpTransaction&& txn) {
  if (feed_ != Feed::kQueues) start_queues();
  Shard& shard = shard_for(txn.client_ip);
  flush_tls(shard);
  shard.pending_http.push_back(std::move(txn));
  if (shard.pending_http.size() >= options_.dispatch_batch_records) {
    flush_http(shard);
  }
}

void ParallelTraceStudy::on_tls(const trace::TlsFlow& flow) {
  if (feed_ != Feed::kQueues) start_queues();
  Shard& shard = shard_for(flow.client_ip);
  flush_http(shard);  // preserve per-shard record order across kinds
  shard.pending_tls.push_back(flow);
  if (shard.pending_tls.size() >= options_.dispatch_batch_records) {
    flush_tls(shard);
  }
}

void ParallelTraceStudy::on_http_batch(
    std::span<const trace::HttpTransactionView> batch) {
  if (feed_ != Feed::kQueues) start_queues();
  // A view about to cross a thread must own its strings.
  for (const auto& view : batch) {
    Shard& shard = shard_for(view.client_ip);
    flush_tls(shard);
    shard.pending_http.emplace_back();
    trace::materialize(view, shard.pending_http.back());
    if (shard.pending_http.size() >= options_.dispatch_batch_records) {
      flush_http(shard);
    }
  }
}

void ParallelTraceStudy::on_tls_batch(
    std::span<const trace::TlsFlowView> batch) {
  for (const auto& flow : batch) on_tls(flow);
}

std::optional<std::uint64_t> ParallelTraceStudy::replay_mapped(
    const trace::MmapTraceReader& reader) {
  if (feed_ == Feed::kQueues) return std::nullopt;
  if (feed_ == Feed::kCursors) {
    throw std::logic_error(
        "ParallelTraceStudy: a second mapped replay (its shards are "
        "already finished)");
  }
  feed_ = Feed::kCursors;
  meta_ = reader.meta();

  const void* const data = reader.data();
  const auto size = static_cast<std::size_t>(reader.file_size());
  std::vector<std::uint64_t> replayed(shards_.size());
  std::vector<std::future<void>> cursors;
  const JoinOnExit join{cursors};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    cursors.push_back(pool_->submit([this, data, size, i, &replayed] {
      Shard& shard = *shards_[i];
      trace::MmapTraceReader cursor(data, size);
      ShardCursor sink(shard.study, i, shards_.size(), shard.records);
      replayed[i] = cursor.replay_batches(sink);
      shard.study.finish();
    }));
  }
  for (auto& cursor : cursors) cursor.get();  // rethrows a cursor's error
  return replayed.front();
}

void ParallelTraceStudy::finish() {
  if (finished_) return;
  switch (feed_) {
    case Feed::kNone:  // nothing fed: the shards only need closing
      for (auto& shard : shards_) shard->study.finish();
      break;
    case Feed::kQueues:
      for (auto& shard : shards_) {
        flush_http(*shard);
        flush_tls(*shard);
        shard->queue.close();
      }
      for (auto& shard : shards_) shard->done.get();  // rethrows worker errors
      break;
    case Feed::kCursors:  // each cursor finished its shard's study
      break;
  }
  merge_shards();
  finished_ = true;
}

std::vector<std::uint64_t> ParallelTraceStudy::shard_records() const {
  std::vector<std::uint64_t> records;
  records.reserve(shards_.size());
  for (const auto& shard : shards_) records.push_back(shard->records);
  return records;
}

void ParallelTraceStudy::merge_shards() {
  // Deterministic merge order (shard 0, 1, …): every merge() is a
  // commutative/associative sum, but fixing the order removes even the
  // possibility of scheduling-dependent results.
  const auto duration = meta_.duration_s > 0
                            ? meta_.duration_s
                            : options_.study.default_duration_s;
  traffic_ = std::make_unique<TrafficStats>(duration,
                                            options_.study.timeseries_bin_s);
  for (const auto& shard : shards_) {
    const TraceStudy& study = shard->study;
    users_.merge(study.users());
    if (study.has_traffic()) traffic_->merge(study.traffic());
    whitelist_.merge(study.whitelist());
    infra_.merge(study.infra());
    rtb_.merge(study.rtb());
    page_views_.merge(study.page_views());
    classifier_counters_.merge(study.classifier().counters());
    https_flows_ += study.https_flows();
    transactions_before_meta_ += study.transactions_before_meta();
  }
}

InferenceResult ParallelTraceStudy::inference() const {
  return infer_adblock_usage(users_, options_.study.inference);
}

ConfigurationReport ParallelTraceStudy::configurations(
    const InferenceResult& inference) const {
  return analyze_configurations(inference, traffic_->whitelisted_requests());
}

StudyView ParallelTraceStudy::view() const noexcept {
  StudyView view;
  view.meta = &meta_;
  view.users = &users_;
  view.traffic = traffic_.get();
  view.whitelist = &whitelist_;
  view.infra = &infra_;
  view.rtb = &rtb_;
  view.page_views = &page_views_;
  view.classifier = &classifier_counters_;
  view.https_flows = https_flows_;
  view.inference_options = options_.study.inference;
  return view;
}

}  // namespace adscope::core
