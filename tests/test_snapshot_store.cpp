// store: the queryable snapshot subsystem in isolation — query grammar
// (valid, invalid, and fuzz-shaped inputs), UTC calendar helpers, the
// field-selective JSON filter, the sharded LRU response cache, and the
// SnapshotTree itself: merges over tree leaves must render byte-
// identically to the same sealed studies absorbed directly in the
// LiveStudy seal hook (the merge laws in action), materialized rollups
// must equal on-demand merges, and retention must bound memory during a
// long replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/study.h"
#include "live/live_study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "stats/json_filter.h"
#include "trace/record.h"
#include "store/query.h"
#include "store/response_cache.h"
#include "store/snapshot_tree.h"
#include "store/store_service.h"
#include "store/study_json.h"

namespace adscope {
namespace {

// ---------------------------------------------------------------------------
// Query grammar

store::QuerySpec parse_ok(const std::string& target,
                          std::uint64_t bucket_seconds = 300) {
  store::QuerySpec spec;
  store::QueryError error;
  EXPECT_TRUE(store::parse_query(target, bucket_seconds, spec, error))
      << target << ": " << error.message;
  return spec;
}

store::QueryError parse_err(const std::string& target,
                            std::uint64_t bucket_seconds = 300) {
  store::QuerySpec spec;
  store::QueryError error;
  EXPECT_FALSE(store::parse_query(target, bucket_seconds, spec, error))
      << target << " unexpectedly parsed";
  return error;
}

TEST(QueryParser, AcceptsAggregatesAndTimeSelectors) {
  auto spec = parse_ok("/query/summary/*");
  EXPECT_EQ(spec.aggregate, store::QuerySpec::Aggregate::kSummary);
  EXPECT_EQ(spec.min_bucket, 0u);
  EXPECT_EQ(spec.max_bucket, UINT64_MAX);
  EXPECT_FALSE(spec.shard.has_value());

  // Bare aggregate defaults to '*'.
  spec = parse_ok("/query/traffic");
  EXPECT_EQ(spec.aggregate, store::QuerySpec::Aggregate::kTraffic);
  EXPECT_EQ(spec.max_bucket, UINT64_MAX);

  spec = parse_ok("/query/users/latest");
  EXPECT_TRUE(spec.latest_only);

  spec = parse_ok("/query/infra/@7");
  EXPECT_EQ(spec.min_bucket, 7u);
  EXPECT_EQ(spec.max_bucket, 7u);

  spec = parse_ok("/query/summary/@2..@9");
  EXPECT_EQ(spec.min_bucket, 2u);
  EXPECT_EQ(spec.max_bucket, 9u);
}

TEST(QueryParser, MapsUtcInstantsToBuckets) {
  // 2015-08-11T15:00:00Z = 1439305200 s; bucket width 300 s.
  auto spec = parse_ok("/query/summary/2015-08-11T15:00");
  EXPECT_EQ(spec.min_bucket, 1439305200u / 300);
  EXPECT_EQ(spec.max_bucket, spec.min_bucket);

  spec = parse_ok("/query/summary/2015-08-11T15:00:00..2015-08-11T16:00:00");
  EXPECT_EQ(spec.min_bucket, 1439305200u / 300);
  EXPECT_EQ(spec.max_bucket, (1439305200u + 3600) / 300);

  // A bare date names the bucket containing midnight.
  spec = parse_ok("/query/summary/2015-08-11");
  EXPECT_EQ(spec.min_bucket, 1439251200u / 300);
}

TEST(QueryParser, AcceptsShardSelector) {
  auto spec = parse_ok("/query/users/*/3");
  EXPECT_TRUE(spec.shard.has_value());
  EXPECT_EQ(*spec.shard, 3u);
  spec = parse_ok("/query/users/*/*");
  EXPECT_FALSE(spec.shard.has_value());
}

TEST(QueryParser, AcceptsRollupsAndBuckets) {
  EXPECT_EQ(parse_ok("/query/buckets").aggregate,
            store::QuerySpec::Aggregate::kBuckets);
  EXPECT_EQ(parse_ok("/query/rollup/infra-cumulative").aggregate,
            store::QuerySpec::Aggregate::kRollupInfraCumulative);
  auto spec = parse_ok("/query/rollup/users-daily/2015-08-11");
  EXPECT_EQ(spec.aggregate, store::QuerySpec::Aggregate::kRollupUsersDaily);
  ASSERT_TRUE(spec.day.has_value());
  EXPECT_EQ(*spec.day, 1439251200u / 86400);
  EXPECT_FALSE(parse_ok("/query/rollup/users-daily/*").day.has_value());
  EXPECT_FALSE(parse_ok("/query/rollup/users-daily").day.has_value());
}

TEST(QueryParser, ParsesRenderingParams) {
  auto spec = parse_ok("/query/infra/*?top=25&fields=trace,servers");
  EXPECT_TRUE(spec.params.has_top());
  EXPECT_EQ(spec.params.top, 25u);
  ASSERT_EQ(spec.params.fields.size(), 2u);
  EXPECT_EQ(spec.params.fields[0], "trace");
  EXPECT_EQ(spec.params.fields[1], "servers");

  spec = parse_ok("/query/summary/*?window_s=900");
  EXPECT_EQ(spec.params.window_s, 900u);

  // Unknown keys are ignored.
  spec = parse_ok("/query/summary/*?foo=bar&top=1");
  EXPECT_EQ(spec.params.top, 1u);
}

TEST(QueryParser, UnknownPathsAre404) {
  EXPECT_EQ(parse_err("/nope").status, 404);
  EXPECT_EQ(parse_err("/query/nope/*").status, 404);
  EXPECT_EQ(parse_err("/query/rollup/nope").status, 404);
  EXPECT_EQ(parse_err("/query/buckets/extra").status, 404);
  EXPECT_EQ(parse_err("/query/summary/*/1/extra").status, 404);
  EXPECT_EQ(parse_err("/query/rollup/users-daily/2015-08-11/x").status, 404);
}

TEST(QueryParser, MalformedSelectorsAre400) {
  for (const char* target : {
           "/query/summary/@",             // bare bucket marker
           "/query/summary/@x",            // non-numeric bucket
           "/query/summary/@9..@2",        // reversed range
           "/query/summary/2015-13-01",    // impossible month
           "/query/summary/2015-02-29",    // not a leap year
           "/query/summary/2015-08-11T25:00",  // impossible hour
           "/query/summary/yesterday",     // free-text time
           "/query/summary/*/x",           // non-numeric shard
           "/query/summary/*/-1",          // signed shard
           "/query/users/latest?window_s=60",   // window_s needs '*'
           "/query/users/@1..@2?window_s=60",
       }) {
    EXPECT_EQ(parse_err(target).status, 400) << target;
  }
}

TEST(QueryParser, HardenedParamParsing) {
  for (const char* target : {
           "/query/summary/*?window_s=",      // empty
           "/query/summary/*?window_s=0",     // zero window
           "/query/summary/*?window_s=abc",   // non-numeric
           "/query/summary/*?window_s=-5",    // signed
           "/query/summary/*?window_s=1e3",   // exponent
           "/query/summary/*?window_s=60x",   // trailing junk
           "/query/summary/*?window_s=99999999999999999999999",  // overflow
           "/query/summary/*?top=",
           "/query/summary/*?top=ten",
           "/query/summary/*?fields=",
           "/query/summary/*?fields=a,,b",
           "/query/summary/*?fields=tr%61ce",  // no percent-decoding
       }) {
    const auto error = parse_err(target);
    EXPECT_EQ(error.status, 400) << target;
    EXPECT_FALSE(error.param.empty()) << target;
  }
}

TEST(QueryParser, FuzzShapedInputsNeverCrash) {
  // Every answer must be a clean accept or a structured error — no
  // throw, no crash. Deterministic pseudo-random target soup.
  const std::string alphabet = "/*@.?&=-0123456789abcTZ:_,";
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 2000; ++round) {
    std::string target = "/query/";
    const auto length = (state >> 16) % 40;
    for (std::uint64_t i = 0; i < length; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      target.push_back(alphabet[(state >> 33) % alphabet.size()]);
    }
    store::QuerySpec spec;
    store::QueryError error;
    const bool accepted = store::parse_query(target, 300, spec, error);
    if (!accepted) {
      EXPECT_TRUE(error.status == 400 || error.status == 404) << target;
      EXPECT_FALSE(error.message.empty()) << target;
    }
  }
}

// ---------------------------------------------------------------------------
// Calendar helpers

TEST(Calendar, CivilDateRoundTrips) {
  EXPECT_EQ(store::days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(store::days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(store::days_from_civil(2015, 8, 11), 1439251200 / 86400);
  EXPECT_EQ(store::format_civil_date(0), "1970-01-01");
  EXPECT_EQ(store::format_civil_date(1439251200 / 86400), "2015-08-11");
  for (const std::uint64_t day : {0u, 59u, 365u, 16659u, 20000u}) {
    const auto text = store::format_civil_date(day);
    const auto parsed = store::parse_civil_date(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(static_cast<std::uint64_t>(*parsed), day);
  }
}

TEST(Calendar, LeapYearsAndInvalidDates) {
  EXPECT_TRUE(store::parse_civil_date("2016-02-29").has_value());
  EXPECT_TRUE(store::parse_civil_date("2000-02-29").has_value());
  EXPECT_FALSE(store::parse_civil_date("1900-02-29").has_value());
  EXPECT_FALSE(store::parse_civil_date("2015-02-29").has_value());
  EXPECT_FALSE(store::parse_civil_date("2015-00-10").has_value());
  EXPECT_FALSE(store::parse_civil_date("2015-04-31").has_value());
  EXPECT_FALSE(store::parse_civil_date("2015-4-31").has_value());
  EXPECT_FALSE(store::parse_civil_date("20150431").has_value());
}

TEST(Calendar, UtcInstants) {
  EXPECT_EQ(store::parse_utc_instant("1970-01-01T00:00").value_or(1), 0u);
  EXPECT_EQ(store::parse_utc_instant("2015-08-11T15:00:00").value_or(0),
            1439305200u);
  EXPECT_EQ(store::parse_utc_instant("2015-08-11T15:00").value_or(0),
            1439305200u);
  EXPECT_FALSE(store::parse_utc_instant("2015-08-11T15").has_value());
  EXPECT_FALSE(store::parse_utc_instant("2015-08-11 15:00").has_value());
  EXPECT_EQ(store::format_utc(1439305200u), "2015-08-11T15:00:00");
}

// ---------------------------------------------------------------------------
// JSON field filter

TEST(JsonFilter, KeepsRequestedTopLevelMembers) {
  const std::string doc =
      R"({"a":1,"b":{"x":[1,2,{"y":"},{"}]},"c":"quote \" brace }","d":null})";
  std::string out;
  std::vector<std::string> missing;
  ASSERT_TRUE(stats::filter_top_level_fields(doc, {"b", "d"}, out, missing));
  EXPECT_EQ(out, R"({"b":{"x":[1,2,{"y":"},{"}]},"d":null})");
  EXPECT_TRUE(missing.empty());

  // Document order wins, not request order.
  ASSERT_TRUE(stats::filter_top_level_fields(doc, {"c", "a"}, out, missing));
  EXPECT_EQ(out, R"({"a":1,"c":"quote \" brace }"})");
}

TEST(JsonFilter, ReportsMissingFields) {
  std::string out;
  std::vector<std::string> missing;
  ASSERT_TRUE(stats::filter_top_level_fields(R"({"a":1})", {"a", "nope"},
                                             out, missing));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "nope");
}

TEST(JsonFilter, RejectsNonObjects) {
  std::string out;
  std::vector<std::string> missing;
  EXPECT_FALSE(stats::filter_top_level_fields("[1,2]", {"a"}, out, missing));
  EXPECT_FALSE(stats::filter_top_level_fields("", {"a"}, out, missing));
  EXPECT_FALSE(stats::filter_top_level_fields(R"({"a":1)", {"a"}, out,
                                              missing));
}

// ---------------------------------------------------------------------------
// Response cache

TEST(ResponseCache, HitMissAndCounters) {
  store::ResponseCache cache({.capacity_bytes = 1 << 20, .shards = 1});
  std::string body;
  EXPECT_FALSE(cache.get("k1", body));
  cache.put("k1", "v1");
  ASSERT_TRUE(cache.get("k1", body));
  EXPECT_EQ(body, "v1");
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_EQ(counters.bytes, 4u);
}

TEST(ResponseCache, EvictsLeastRecentlyUsedFirst) {
  // Single shard, budget for ~3 entries of 20 bytes (10-byte keys +
  // 10-byte bodies).
  store::ResponseCache cache({.capacity_bytes = 60, .shards = 1});
  const std::string body(10 - 2, 'x');
  cache.put("aaaaaaaaaa", body + "_a");
  cache.put("bbbbbbbbbb", body + "_b");
  cache.put("cccccccccc", body + "_c");
  std::string out;
  ASSERT_TRUE(cache.get("aaaaaaaaaa", out));  // promote a over b
  cache.put("dddddddddd", body + "_d");       // must evict b, the LRU
  EXPECT_FALSE(cache.get("bbbbbbbbbb", out));
  EXPECT_TRUE(cache.get("aaaaaaaaaa", out));
  EXPECT_TRUE(cache.get("cccccccccc", out));
  EXPECT_TRUE(cache.get("dddddddddd", out));
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResponseCache, EpochInKeyInvalidatesNaturally) {
  // The store keys entries by (target, fingerprint); a fingerprint
  // bump is simply a different key — old epochs age out via LRU.
  store::ResponseCache cache({.capacity_bytes = 1 << 10, .shards = 1});
  cache.put("/query/summary#e1", "old");
  std::string out;
  EXPECT_FALSE(cache.get("/query/summary#e2", out));
  ASSERT_TRUE(cache.get("/query/summary#e1", out));
  EXPECT_EQ(out, "old");
}

TEST(ResponseCache, ZeroCapacityDisablesAndOversizedSkipped) {
  store::ResponseCache off({.capacity_bytes = 0, .shards = 1});
  off.put("k", "v");
  std::string out;
  EXPECT_FALSE(off.get("k", out));
  EXPECT_EQ(off.counters().entries, 0u);

  store::ResponseCache tiny({.capacity_bytes = 8, .shards = 1});
  tiny.put("key", std::string(100, 'x'));  // larger than the budget
  EXPECT_FALSE(tiny.get("key", out));
  EXPECT_EQ(tiny.counters().entries, 0u);
  EXPECT_EQ(tiny.counters().evictions, 0u);
}

TEST(ResponseCache, ClearDropsEntriesKeepsCounters) {
  store::ResponseCache cache({.capacity_bytes = 1 << 10, .shards = 2});
  cache.put("k1", "v1");
  cache.put("k2", "v2");
  std::string out;
  ASSERT_TRUE(cache.get("k1", out));
  cache.clear();
  EXPECT_FALSE(cache.get("k1", out));
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().bytes, 0u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

// ---------------------------------------------------------------------------
// SnapshotTree fed by a real LiveStudy

class SnapshotTreeTest : public ::testing::Test {
 protected:
  static const sim::Ecosystem& eco() {
    static const sim::Ecosystem instance = [] {
      sim::EcosystemOptions options;
      options.publishers = 400;
      return sim::Ecosystem::generate(42, options);
    }();
    return instance;
  }
  static const sim::GeneratedLists& lists() {
    static const sim::GeneratedLists instance = sim::generate_lists(eco());
    return instance;
  }
  static const adblock::FilterEngine& engine() {
    static const adblock::FilterEngine instance = sim::make_engine(
        lists(), sim::ListSelection{.easylist = true,
                                    .derivative = true,
                                    .easyprivacy = true,
                                    .acceptable_ads = true});
    return instance;
  }
  static const trace::MemoryTrace& sample_trace() {
    static const trace::MemoryTrace instance = [] {
      trace::MemoryTrace memory;
      sim::RbnSimulator simulator(eco(), lists(), 42);
      auto options = sim::rbn2_options(40);
      options.duration_s = 2 * 3600;
      simulator.simulate(options, memory);
      return memory;
    }();
    return instance;
  }
  static core::StudyOptions study_options() {
    core::StudyOptions options;
    options.inference.min_requests = 300;
    return options;
  }

  /// The middle slice of buckets the sub-range checks use.
  static constexpr std::uint64_t kSliceMin = 3;
  static constexpr std::uint64_t kSliceMax = 9;

  struct FedStore {
    store::SnapshotTree tree;
    std::uint64_t watermark_ms = 0;
    std::uint64_t ingested = 0;
    std::uint64_t dropped = 0;
    /// The reference the tree is checked against: the same sealed
    /// studies absorbed directly in the seal hook — every bucket, and
    /// buckets [kSliceMin, kSliceMax].
    std::optional<core::StudySnapshot> whole;
    std::optional<core::StudySnapshot> slice;

    explicit FedStore(store::SnapshotTreeOptions options) : tree(options) {}

    void on_seal(std::uint64_t bucket_id, std::size_t shard,
                 const core::TraceStudy& sealed) {
      tree.ingest(bucket_id, shard, sealed);
      std::lock_guard lock(mutex);  // shard workers seal concurrently
      absorb(whole, bucket_id, sealed);
      if (bucket_id >= kSliceMin && bucket_id <= kSliceMax) {
        absorb(slice, bucket_id, sealed);
      }
    }

   private:
    static void absorb(std::optional<core::StudySnapshot>& into,
                       std::uint64_t bucket_id,
                       const core::TraceStudy& sealed) {
      if (!into.has_value()) {
        into.emplace(sealed.meta(), study_options());
        into->bucket_seconds = 300;
      }
      into->absorb(sealed);
      into->note_bucket(bucket_id);
    }
    std::mutex mutex;
  };

  /// Replays the sample trace through a LiveStudy whose seal hook feeds
  /// `fed`, with `threads` shards and 300 s buckets, then seals
  /// everything and closes the study.
  static void feed(FedStore& fed, std::size_t threads) {
    live::LiveStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    options.bucket_seconds = 300;
    options.on_seal = [&fed](std::uint64_t bucket_id, std::size_t shard,
                             const core::TraceStudy& sealed) {
      fed.on_seal(bucket_id, shard, sealed);
    };
    live::LiveStudy study(engine(), eco().abp_registry(), options);
    sample_trace().replay(study);
    study.seal_all();
    study.flush();
    fed.watermark_ms = study.watermark_ms();
    fed.ingested = study.records_ingested();
    fed.dropped = study.total_drops();
    study.close();
  }

  static store::SnapshotTreeOptions tree_options() {
    store::SnapshotTreeOptions options;
    options.study = study_options();
    options.bucket_seconds = 300;
    return options;
  }

  static void stamp(core::StudySnapshot& snapshot, const FedStore& fed) {
    snapshot.watermark_ms = fed.watermark_ms;
    snapshot.records_ingested = fed.ingested;
    snapshot.records_dropped = fed.dropped;
  }
};

TEST_F(SnapshotTreeTest, TreeMergeRendersIdenticallyToLiveSnapshot) {
  for (const std::size_t threads : {1u, 2u, 7u}) {
    FedStore fed(tree_options());
    feed(fed, threads);

    auto from_tree = fed.tree.merge(0, UINT64_MAX, std::nullopt);
    stamp(from_tree, fed);
    ASSERT_TRUE(fed.whole.has_value());
    auto& from_live = *fed.whole;
    stamp(from_live, fed);

    EXPECT_EQ(store::summary_json(from_tree), store::summary_json(from_live))
        << threads << " threads";
    EXPECT_EQ(store::traffic_json(from_tree), store::traffic_json(from_live));
    EXPECT_EQ(store::users_json(from_tree), store::users_json(from_live));
    EXPECT_EQ(store::infra_json(from_tree, &eco().asn_db(), 10),
              store::infra_json(from_live, &eco().asn_db(), 10));
  }
}

TEST_F(SnapshotTreeTest, SubRangeAndShardMergesMatchLive) {
  FedStore fed(tree_options());
  feed(fed, 2);

  // A middle slice of buckets.
  auto tree_slice = fed.tree.merge(kSliceMin, kSliceMax, std::nullopt);
  stamp(tree_slice, fed);
  ASSERT_TRUE(fed.slice.has_value());
  auto& live_slice = *fed.slice;
  stamp(live_slice, fed);
  EXPECT_EQ(live_slice.buckets_merged(), kSliceMax - kSliceMin + 1);
  EXPECT_EQ(store::summary_json(tree_slice), store::summary_json(live_slice));
  EXPECT_EQ(store::users_json(tree_slice), store::users_json(live_slice));

  // Per-shard leaves partition every leaf.
  const auto all = fed.tree.leaf_count();
  std::size_t across = 0;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    across += static_cast<std::size_t>(
        fed.tree.merge(0, UINT64_MAX, shard).buckets_merged());
  }
  EXPECT_EQ(across, all);
}

TEST_F(SnapshotTreeTest, MaterializedRollupsEqualOnDemandMerges) {
  FedStore fed(tree_options());
  feed(fed, 2);

  const auto days = fed.tree.users_daily_days();
  ASSERT_FALSE(days.empty());
  const std::uint64_t buckets_per_day = 86400 / 300;
  for (const auto day : days) {
    auto rollup = fed.tree.users_daily(day);
    ASSERT_TRUE(rollup.has_value());
    stamp(*rollup, fed);
    auto on_demand = fed.tree.merge(day * buckets_per_day,
                                    (day + 1) * buckets_per_day - 1,
                                    std::nullopt);
    stamp(on_demand, fed);
    EXPECT_EQ(store::users_json(*rollup), store::users_json(on_demand));
  }

  auto cumulative = fed.tree.infra_cumulative();
  stamp(cumulative, fed);
  auto full = fed.tree.merge(0, UINT64_MAX, std::nullopt);
  stamp(full, fed);
  EXPECT_EQ(store::infra_json(cumulative, &eco().asn_db(), 10),
            store::infra_json(full, &eco().asn_db(), 10));
}

TEST_F(SnapshotTreeTest, RetentionBoundsTreeDuringLongReplay) {
  // 2 h of 300 s buckets = 24 buckets; retain 5. Run under the ASan
  // job, this also proves eviction releases leaf memory cleanly.
  auto options = tree_options();
  options.retention_buckets = 5;
  FedStore fed(options);
  feed(fed, 2);

  EXPECT_LE(fed.tree.bucket_count(), 5u);
  EXPECT_GT(fed.tree.buckets_evicted(), 0u);
  ASSERT_TRUE(fed.tree.min_bucket().has_value());
  EXPECT_GT(*fed.tree.min_bucket(), 0u);
  // The cumulative rollup ignores retention: it still covers every
  // bucket ever sealed, each counted once however many shards sealed it.
  ASSERT_TRUE(fed.whole.has_value());
  EXPECT_EQ(fed.whole->buckets_merged(), 24u);
  EXPECT_EQ(fed.tree.infra_cumulative().buckets_merged(), 24u);
  EXPECT_LT(fed.tree.infra_cumulative().buckets_merged(),
            fed.tree.leaves_ingested());
  // Epoch moved on every mutation.
  EXPECT_GE(fed.tree.epoch(), fed.tree.leaves_ingested());
}

TEST_F(SnapshotTreeTest, StoreServiceEndToEnd) {
  store::StoreServiceOptions options;
  options.tree = tree_options();
  options.cache.shards = 1;
  store::StoreService service(options, &eco().asn_db());

  live::LiveStudyOptions live_options;
  live_options.study = study_options();
  live_options.threads = 2;
  live_options.bucket_seconds = 300;
  live_options.on_seal = [&service](std::uint64_t bucket_id, std::size_t shard,
                                    const core::TraceStudy& sealed) {
    service.tree().ingest(bucket_id, shard, sealed);
  };
  live::LiveStudy study(engine(), eco().abp_registry(), live_options);
  sample_trace().replay(study);
  study.seal_all();
  study.flush();
  service.set_live_stats([&study] {
    return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                            study.total_drops(), study.current_bucket()};
  });

  // 200s with ETags; repeated queries hit the cache.
  const auto first = service.query("/query/summary/*");
  ASSERT_EQ(first.status, 200);
  EXPECT_FALSE(first.etag.empty());
  const auto again = service.query("/query/summary/*");
  EXPECT_EQ(again.body, first.body);
  EXPECT_EQ(again.etag, first.etag);
  EXPECT_GE(service.cache_counters().hits, 1u);

  // fields= filtering really subsets the document.
  const auto filtered = service.query("/query/summary/*?fields=trace,users");
  ASSERT_EQ(filtered.status, 200);
  EXPECT_LT(filtered.body.size(), first.body.size());
  EXPECT_EQ(filtered.body.rfind("{\"trace\"", 0), 0u);
  EXPECT_EQ(filtered.body.find("\"page_views\""), std::string::npos);
  const auto unknown_field =
      service.query("/query/summary/*?fields=trace,nope");
  EXPECT_EQ(unknown_field.status, 400);
  EXPECT_NE(unknown_field.body.find("\"param\":\"fields\""),
            std::string::npos);

  // Rollup listing and a present day.
  const auto days = service.query("/query/rollup/users-daily/*");
  ASSERT_EQ(days.status, 200);
  const auto missing_day = service.query("/query/rollup/users-daily/1999-01-01");
  EXPECT_EQ(missing_day.status, 404);

  // window_s answers the same bytes as the equivalent bucket range.
  const auto windowed = service.query("/query/summary/*?window_s=900");
  ASSERT_EQ(windowed.status, 200);
  const auto current = study.current_bucket();
  const auto explicit_range =
      service.query("/query/summary/@" + std::to_string(current - 2) + "..@" +
                    std::to_string(current + 1000));
  ASSERT_EQ(explicit_range.status, 200);
  EXPECT_EQ(windowed.body, explicit_range.body);

  // Buckets index is coherent.
  const auto buckets = service.query("/query/buckets");
  ASSERT_EQ(buckets.status, 200);
  EXPECT_NE(buckets.body.find("\"bucket_seconds\":300"), std::string::npos);

  study.close();
}

}  // namespace
}  // namespace adscope
