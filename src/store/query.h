// Query path & parameter grammar for the snapshot store.
//
// A query target names an aggregate, a time slice, and optionally a
// shard, plus rendering parameters (full grammar: docs/QUERY.md):
//
//   /query/<aggregate>/<time>[/<shard>][?params]
//
//   aggregate  summary | traffic | users | infra
//   time       *                       every retained bucket
//              latest                  newest retained bucket only
//              @N | @A..@B             raw bucket ids (inclusive range)
//              2026-08-07T08:00[:SS]   UTC instant -> containing bucket
//              <instant>..<instant>    inclusive range of buckets
//   shard      * (default) | decimal shard id
//   params     window_s=N  top=N  fields=a,b,c
//
//   /query/rollup/users-daily/<YYYY-MM-DD | *>   materialized rollups
//   /query/rollup/infra-cumulative
//   /query/buckets                               store index
//
// Parsing is strict and total: anything the grammar does not accept
// yields a QueryError carrying the HTTP status (404 for unknown path
// segments, 400 for malformed selectors/parameters), a message, and
// the offending parameter name — the serving layer renders that as a
// structured JSON error body instead of silently defaulting. The
// legacy /study/<agg> routes are rewritten to /query/<agg>/* before
// parsing, so the 400/404 semantics are uniform across the whole HTTP
// surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adscope::store {

/// Parse failure: HTTP status (400 or 404), a human message, and the
/// parameter/segment that caused it ("" when positional).
struct QueryError {
  int status = 400;
  std::string message;
  std::string param;
};

/// Rendering parameters (the part of a target after '?').
struct QueryParams {
  /// Trailing window in seconds; 0 = absent (whole retained range).
  std::uint64_t window_s = 0;
  /// Row cap for ranked tables (today: infra's AS ranking). SIZE_MAX =
  /// absent, use the serving default.
  std::size_t top = SIZE_MAX;
  /// Top-level fields of the rendered document to keep; empty = all.
  std::vector<std::string> fields;

  bool has_top() const noexcept { return top != SIZE_MAX; }
};

/// Parses the query string (the part after '?', '&'-separated). Known
/// keys are validated strictly (non-numeric, empty, zero or overflowing
/// values are errors); unknown keys are ignored per HTTP convention.
/// Returns false and fills `error` on the first invalid parameter.
bool parse_params(std::string_view query, QueryParams& params,
                  QueryError& error);

struct QuerySpec {
  enum class Aggregate {
    kSummary,
    kTraffic,
    kUsers,
    kInfra,
    kRollupUsersDaily,
    kRollupInfraCumulative,
    kBuckets,
  };

  Aggregate aggregate = Aggregate::kSummary;
  /// Bucket-id range, inclusive; [0, UINT64_MAX] = every bucket.
  std::uint64_t min_bucket = 0;
  std::uint64_t max_bucket = UINT64_MAX;
  /// "latest": resolve max retained bucket at serve time.
  bool latest_only = false;
  /// Shard filter; nullopt = merge every shard.
  std::optional<std::size_t> shard;
  /// Day index (days since epoch, UTC) for users-daily; nullopt = list
  /// the available days.
  std::optional<std::uint64_t> day;
  QueryParams params;
};

/// Parses a full "/query/..." request target (path + optional query
/// string). `bucket_seconds` converts time instants to bucket ids.
/// Returns false and fills `error` on malformed input: unknown
/// aggregate/rollup names are 404s, malformed selectors and parameters
/// are 400s.
bool parse_query(std::string_view target, std::uint64_t bucket_seconds,
                 QuerySpec& spec, QueryError& error);

// -- calendar helpers (UTC, no timezone dependency) -----------------------

/// Days since 1970-01-01 of a civil date (proleptic Gregorian).
std::int64_t days_from_civil(std::int64_t year, unsigned month, unsigned day);

/// "YYYY-MM-DD" -> days since epoch; rejects impossible dates.
std::optional<std::int64_t> parse_civil_date(std::string_view text);

/// "YYYY-MM-DDTHH:MM[:SS]" (also bare "YYYY-MM-DD") -> UTC seconds.
std::optional<std::uint64_t> parse_utc_instant(std::string_view text);

/// UTC seconds -> "YYYY-MM-DDTHH:MM:SS" (for the /query/buckets index).
std::string format_utc(std::uint64_t unix_s);

/// Days since epoch -> "YYYY-MM-DD".
std::string format_civil_date(std::uint64_t day_index);

}  // namespace adscope::store
