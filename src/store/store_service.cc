#include "store/store_service.h"

#include <utility>

#include "stats/json.h"
#include "stats/json_filter.h"
#include "store/study_json.h"

namespace adscope::store {

std::string error_json(const QueryError& error) {
  stats::JsonWriter json;
  json.begin_object();
  json.key("error").begin_object();
  json.field("status", static_cast<std::int64_t>(error.status));
  json.field("message", error.message);
  if (!error.param.empty()) json.field("param", error.param);
  json.end_object();
  json.end_object();
  return json.str();
}

namespace {

StoreService::Response error_response(const QueryError& error) {
  return {error.status, "application/json", error_json(error), ""};
}

std::string fingerprint_of(std::uint64_t epoch, const LiveStats& live) {
  std::string fp = "e";
  fp += std::to_string(epoch);
  fp += "-w";
  fp += std::to_string(live.watermark_ms);
  fp += "-i";
  fp += std::to_string(live.records_ingested);
  fp += "-d";
  fp += std::to_string(live.records_dropped);
  return fp;
}

}  // namespace

StoreService::StoreService(StoreServiceOptions options,
                           const netdb::AsnDatabase* asn_db)
    : options_(options),
      asn_db_(asn_db),
      tree_(options.tree),
      cache_(options.cache) {}

LiveStats StoreService::live_stats_now() const {
  if (live_stats_) return live_stats_();
  // Offline / unwired: anchor trailing windows on the newest leaf.
  LiveStats stats;
  stats.current_bucket = tree_.max_bucket().value_or(0);
  return stats;
}

std::string StoreService::state_fingerprint() const {
  return fingerprint_of(tree_.epoch(), live_stats_now());
}

StoreService::Response StoreService::query(std::string_view target) {
  const auto live = live_stats_now();
  const std::string fingerprint = fingerprint_of(tree_.epoch(), live);

  std::string etag = "\"";
  etag += fingerprint;
  etag += "\"";

  std::string key;
  key.reserve(target.size() + fingerprint.size() + 1);
  key.append(target);
  key.push_back('#');
  key.append(fingerprint);

  Response response;
  if (cache_.get(key, response.body)) {
    response.etag = std::move(etag);
    return response;
  }

  QuerySpec spec;
  QueryError error;
  if (!parse_query(target, tree_.bucket_seconds(), spec, error)) {
    return error_response(error);
  }

  response = render(spec, live);
  if (response.status == 200) {
    response.etag = std::move(etag);
    cache_.put(key, response.body);
  }
  return response;
}

StoreService::Response StoreService::render(const QuerySpec& spec,
                                            const LiveStats& live) const {
  using Aggregate = QuerySpec::Aggregate;

  if (spec.aggregate == Aggregate::kBuckets) return render_buckets();
  if (spec.aggregate == Aggregate::kRollupUsersDaily && !spec.day) {
    return render_days();
  }

  const std::size_t top =
      spec.params.has_top() ? spec.params.top : options_.top_ases;

  core::StudySnapshot snapshot = [&] {
    switch (spec.aggregate) {
      case Aggregate::kRollupUsersDaily:
        if (auto rollup = tree_.users_daily(*spec.day)) {
          return std::move(*rollup);
        }
        return tree_.merge(1, 0, std::nullopt);  // empty, resolved below
      case Aggregate::kRollupInfraCumulative:
        return tree_.infra_cumulative();
      default: {
        std::uint64_t min_bucket = spec.min_bucket;
        std::uint64_t max_bucket = spec.max_bucket;
        if (spec.latest_only) {
          const auto newest = tree_.max_bucket();
          min_bucket = newest.value_or(1);
          max_bucket = newest.value_or(0);
        } else if (spec.params.window_s > 0) {
          // Trailing window of whole buckets, ending at the live
          // watermark's bucket.
          const auto span =
              (spec.params.window_s + tree_.bucket_seconds() - 1) /
              tree_.bucket_seconds();
          min_bucket =
              live.current_bucket >= span ? live.current_bucket - span + 1 : 0;
          max_bucket = UINT64_MAX;
        }
        return tree_.merge(min_bucket, max_bucket, spec.shard);
      }
    }
  }();

  if (spec.aggregate == Aggregate::kRollupUsersDaily &&
      snapshot.buckets_merged() == 0) {
    return error_response(
        {404, "no users-daily rollup for " + format_civil_date(*spec.day),
         "day"});
  }

  snapshot.watermark_ms = live.watermark_ms;
  snapshot.records_ingested = live.records_ingested;
  snapshot.records_dropped = live.records_dropped;

  std::string body;
  switch (spec.aggregate) {
    case Aggregate::kSummary:
      body = summary_json(snapshot);
      break;
    case Aggregate::kTraffic:
      body = traffic_json(snapshot);
      break;
    case Aggregate::kUsers:
    case Aggregate::kRollupUsersDaily:
      body = users_json(snapshot);
      break;
    case Aggregate::kInfra:
    case Aggregate::kRollupInfraCumulative:
      body = infra_json(snapshot, asn_db_, top);
      break;
    case Aggregate::kBuckets:
      break;  // handled above
  }

  if (!spec.params.fields.empty()) {
    std::string filtered;
    std::vector<std::string> missing;
    if (!stats::filter_top_level_fields(body, spec.params.fields, filtered,
                                        missing)) {
      return error_response({500, "rendered document is not an object", ""});
    }
    if (!missing.empty()) {
      std::string message = "unknown field";
      if (missing.size() > 1) message += 's';
      message += ": ";
      for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i > 0) message += ", ";
        message += missing[i];
      }
      return error_response({400, std::move(message), "fields"});
    }
    body = std::move(filtered);
  }

  return {200, "application/json", std::move(body), ""};
}

StoreService::Response StoreService::render_buckets() const {
  stats::JsonWriter json;
  json.begin_object();
  json.field("bucket_seconds", tree_.bucket_seconds());
  json.field("epoch", tree_.epoch());
  json.field("buckets_retained",
             static_cast<std::uint64_t>(tree_.bucket_count()));
  json.field("buckets_evicted", tree_.buckets_evicted());
  json.key("buckets").begin_array();
  for (const auto& info : tree_.index()) {
    json.begin_object();
    json.field("id", info.id);
    json.field("start", format_utc(info.id * tree_.bucket_seconds()));
    json.field("start_unix_s", info.id * tree_.bucket_seconds());
    json.field("shards", static_cast<std::uint64_t>(info.shards));
    json.field("records", info.records);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return {200, "application/json", json.str(), ""};
}

StoreService::Response StoreService::render_days() const {
  stats::JsonWriter json;
  json.begin_object();
  json.key("days").begin_array();
  for (const auto day : tree_.users_daily_days()) {
    json.begin_object();
    json.field("day", format_civil_date(day));
    json.field("path", "/query/rollup/users-daily/" + format_civil_date(day));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return {200, "application/json", json.str(), ""};
}

}  // namespace adscope::store
