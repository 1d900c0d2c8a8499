#include "core/parallel_study.h"

#include <future>
#include <stdexcept>

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
    : options_(options), pool_(pool) {
  const auto shards = util::resolve_thread_count(options_.threads);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(engine, registry, options_.study));
  }
}

void ParallelTraceStudy::start_inline() {
  if (feed_ == Feed::kCursors) {
    throw std::logic_error(
        "ParallelTraceStudy: records fed after a mapped replay (its "
        "shards are already finished)");
  }
  feed_ = Feed::kInline;
}

ParallelTraceStudy::Shard& ParallelTraceStudy::route(
    netdb::IpV4 client_ip) {
  start_inline();
  Shard& shard = *shards_[shard_of(client_ip, shards_.size())];
  ++shard.records;
  return shard;
}

void ParallelTraceStudy::on_meta(const trace::TraceMeta& meta) {
  start_inline();
  for (auto& shard : shards_) shard->study.on_meta(meta);
}

void ParallelTraceStudy::on_http(const trace::HttpTransaction& txn) {
  route(txn.client_ip).study.on_http(txn);
}

void ParallelTraceStudy::on_tls(const trace::TlsFlow& flow) {
  route(flow.client_ip).study.on_tls(flow);
}

void ParallelTraceStudy::on_http_batch(
    std::span<const trace::HttpTransactionView> batch) {
  for (const auto& view : batch) {
    Shard& shard = route(view.client_ip);
    trace::materialize(view, scratch_);
    shard.study.on_http(scratch_);
  }
}

void ParallelTraceStudy::on_tls_batch(
    std::span<const trace::TlsFlowView> batch) {
  for (const auto& flow : batch) on_tls(flow);
}

std::optional<std::uint64_t> ParallelTraceStudy::replay_mapped(
    const trace::MmapTraceReader& reader) {
  if (feed_ == Feed::kInline) return std::nullopt;
  if (feed_ == Feed::kCursors) {
    throw std::logic_error(
        "ParallelTraceStudy: a second mapped replay (its shards are "
        "already finished)");
  }
  feed_ = Feed::kCursors;
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(shards_.size());
    pool_ = owned_pool_.get();
  }

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
  if (merged_) return;
  // A cursor already finished its shard's study; finish() is idempotent.
  for (auto& shard : shards_) shard->study.finish();
  // Deterministic merge order (shard 0, 1, …): every merge() is a
  // commutative/associative sum, but fixing the order removes even the
  // possibility of scheduling-dependent results. Every shard saw the
  // same meta.
  merged_.emplace(shards_.front()->study.meta(), options_.study);
  for (const auto& shard : shards_) merged_->absorb(shard->study);
}

std::vector<std::uint64_t> ParallelTraceStudy::shard_records() const {
  std::vector<std::uint64_t> records;
  records.reserve(shards_.size());
  for (const auto& shard : shards_) records.push_back(shard->records);
  return records;
}

std::uint64_t ParallelTraceStudy::transactions_before_meta() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->study.transactions_before_meta();
  }
  return total;
}

}  // namespace adscope::core
