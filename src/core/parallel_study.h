// ParallelTraceStudy — sharded multi-core version of TraceStudy.
//
// Every piece of per-user pipeline state (the classifier's ReferrerMap,
// UserIndex, PageSegmenter) is keyed by client_ip, so the trace can be
// partitioned by fnv1a(client_ip) % nshards without changing any
// per-user processing order. Each shard runs a complete serial
// TraceStudy; finish() absorbs the shard studies into one StudySnapshot
// in shard-index order. A shard's study is fed one of two ways:
//
//  * Cursors over a mapping, the one threaded feed. Handed to
//    MmapTraceReader::replay_batches, the study takes the replay over
//    (TraceBatchSink::replay_mapped): one pool task per shard opens its
//    own reader over the mapped bytes, decodes every record (the
//    dictionary spans the whole stream), skips the ones whose client
//    hashes to another shard, and materializes the rest into one reused
//    scratch record for its study. Nothing is queued, allocated per
//    record or handed between threads, and no cursor waits on another,
//    so a pool smaller than the shard count runs them in turn.
//    replay_batches returns once every cursor has finished its study.
//  * Inline, for everything else (streamed and pcap sources, per-record
//    TraceSink callers such as the CLI's --log tee, wrappers that do not
//    forward the hook): the calling thread routes each record to its
//    shard's study and runs it there. A queued hand-off to workers cost
//    1.6-1.8x the CPU of this for no wall-time gain (DESIGN.md §6);
//    live::LiveStudy is the queued shard runtime for sources that need
//    one.
//
// A mapped replay is the whole of a study's input: feeding records
// after it throws std::logic_error. Once records have been routed
// inline, a later mapped replay declines the hook and is routed inline
// too, so its records stay in order behind theirs.
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
#include <memory>
#include <optional>
#include <vector>

#include "core/study.h"
#include "core/study_snapshot.h"
#include "trace/view.h"
#include "util/thread_pool.h"

namespace adscope::core {

struct ParallelStudyOptions {
  /// Forwarded verbatim to every shard's TraceStudy.
  StudyOptions study;
  /// Shard count; 0 picks the hardware concurrency.
  std::size_t threads = 0;
};

class ParallelTraceStudy final : public trace::TraceSink,
                                 public trace::TraceBatchSink {
 public:
  /// `pool` optionally supplies reusable worker threads for the cursor
  /// feed (any size; with fewer threads than shards the cursors take
  /// turns). Without a pool the first mapped replay starts one sized to
  /// the shard count. Engine, registry and pool must outlive the study.
  ParallelTraceStudy(const adblock::FilterEngine& engine,
                     const netdb::AbpServerRegistry& registry,
                     ParallelStudyOptions options = {},
                     util::ThreadPool* pool = nullptr);

  ParallelTraceStudy(const ParallelTraceStudy&) = delete;
  ParallelTraceStudy& operator=(const ParallelTraceStudy&) = delete;

  // TraceSink + TraceBatchSink: the inline feed (each record runs on
  // the calling thread, in its shard's study). The single on_meta
  // overrides both bases.
  void on_meta(const trace::TraceMeta& meta) override;
  void on_http(const trace::HttpTransaction& txn) override;
  void on_tls(const trace::TlsFlow& flow) override;
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override;
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override;

  /// The cursor feed: runs one cursor per shard over `reader`'s bytes
  /// on the pool and returns, after every cursor has joined, the record
  /// count a serial replay returns. Declines (std::nullopt) once records
  /// have been routed inline. A cursor's TraceFormatError is rethrown
  /// after all of them have stopped.
  std::optional<std::uint64_t> replay_mapped(
      const trace::MmapTraceReader& reader) override;

  /// Finish the shard studies and merge them. Idempotent.
  void finish();

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Records (HTTP + TLS) each shard's study received, in shard order:
  /// how evenly client_ip hashing split the trace.
  std::vector<std::uint64_t> shard_records() const;

  /// Summed over the shard studies (the snapshot does not carry it).
  std::uint64_t transactions_before_meta() const noexcept;

  // The merged result; valid after finish() (std::bad_optional_access
  // before it).
  StudyView view() const { return merged_.value().view(); }
  const ClassifierCounters& classifier_counters() const {
    return merged_.value().classifier_counters();
  }
  std::uint64_t https_flows() const { return merged_.value().https_flows(); }

 private:
  struct Shard {
    Shard(const adblock::FilterEngine& engine,
          const netdb::AbpServerRegistry& registry, const StudyOptions& options)
        : study(engine, registry, options) {}

    TraceStudy study;
    std::uint64_t records = 0;  // written by whichever thread feeds study
  };

  /// Which feed the shards' studies have (the first call decides).
  enum class Feed { kNone, kInline, kCursors };

  /// Claims the inline feed; throws std::logic_error after a cursor feed.
  void start_inline();
  /// start_inline(), then counts one record for the client's shard and
  /// returns it.
  Shard& route(netdb::IpV4 client_ip);

  ParallelStudyOptions options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  // the caller's, or owned_pool_ once started
  std::vector<std::unique_ptr<Shard>> shards_;
  Feed feed_ = Feed::kNone;
  trace::HttpTransaction scratch_;  // on_http_batch's materialized record
  std::optional<StudySnapshot> merged_;
};

}  // namespace adscope::core
