// StoreService — the query engine over a SnapshotTree.
//
// One object owns the pieces of the serving pipeline:
//
//   request target ─▶ parse (query.h) ─▶ resolve (tree merge / rollup)
//        │                                   │
//        └── response cache ◀── render (study_json + json_filter) ◀──┘
//
// The HTTP endpoint and the offline `adscope query` CLI both call
// query() with a raw "/query/..." target and get back status, body and
// the entity tag — neither owns any query logic, so wire responses and
// CLI output are identical by construction.
//
// State fingerprint: the tree epoch plus the live ingest counters
// (watermark, ingested, dropped — they appear in every rendered window
// block, so two responses are byte-identical iff the fingerprint
// matches). The fingerprint keys the response cache and becomes the
// ETag; set_live_stats() wires the provider (the daemon passes the
// LiveStudy's counters, offline replay its final totals).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "netdb/asn_db.h"
#include "store/query.h"
#include "store/response_cache.h"
#include "store/snapshot_tree.h"

namespace adscope::store {

/// Live-ingest counters stamped into rendered window blocks; also part
/// of the response fingerprint.
struct LiveStats {
  std::uint64_t watermark_ms = 0;
  std::uint64_t records_ingested = 0;
  std::uint64_t records_dropped = 0;
  /// Bucket containing the watermark — the anchor for trailing
  /// window_s= queries.
  std::uint64_t current_bucket = 0;
};
using LiveStatsFn = std::function<LiveStats()>;

struct StoreServiceOptions {
  SnapshotTreeOptions tree;
  ResponseCacheOptions cache;
  /// Default AS-ranking rows for infra views (overridden by ?top=N).
  std::size_t top_ases = 10;
};

/// `{"error":{"status":...,"message":...,"param":...}}` — the one
/// error-body shape every route (query and legacy) answers with.
std::string error_json(const QueryError& error);

class StoreService {
 public:
  /// `asn_db` (nullable) enables infra AS rankings; must outlive the
  /// service.
  explicit StoreService(StoreServiceOptions options,
                        const netdb::AsnDatabase* asn_db = nullptr);

  StoreService(const StoreService&) = delete;
  StoreService& operator=(const StoreService&) = delete;

  /// Wire the live counters provider. Must be set before serving; when
  /// unset, window blocks are stamped with zeros and window_s= anchors
  /// on the newest retained bucket.
  void set_live_stats(LiveStatsFn fn) { live_stats_ = std::move(fn); }

  struct Response {
    int status = 200;
    std::string content_type = "application/json";
    std::string body;
    /// Strong validator for 200s ("\"<fingerprint>\""); empty on errors.
    std::string etag;
  };

  /// Answer a full "/query/..." request target. Thread-safe; never
  /// throws on bad input — malformed requests come back as structured
  /// 400/404 JSON bodies.
  Response query(std::string_view target);

  /// Current response fingerprint (tree epoch + live counters). Equal
  /// fingerprints imply byte-identical responses for equal targets.
  std::string state_fingerprint() const;

  SnapshotTree& tree() noexcept { return tree_; }
  const SnapshotTree& tree() const noexcept { return tree_; }
  ResponseCacheCounters cache_counters() const { return cache_.counters(); }
  std::size_t cache_capacity_bytes() const noexcept {
    return cache_.capacity_bytes();
  }
  std::size_t top_ases() const noexcept { return options_.top_ases; }

 private:
  LiveStats live_stats_now() const;
  Response render(const QuerySpec& spec, const LiveStats& live) const;
  Response render_buckets() const;
  Response render_days() const;

  StoreServiceOptions options_;
  const netdb::AsnDatabase* asn_db_;
  SnapshotTree tree_;
  ResponseCache cache_;
  LiveStatsFn live_stats_;
};

}  // namespace adscope::store
