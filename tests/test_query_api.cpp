// live+store: the /query HTTP surface and its legacy /study aliases.
//
// The acceptance-grade property: every legacy /study/<agg> target is an
// alias of /query/<agg>/* — same status, body and ETag, with and
// without the response cache, at 1, 2 and 7 shard threads — and the
// /query bodies equal the LiveStudy's own snapshot rendered through
// store::study_json. Plus the transport: ETag/If-None-Match
// revalidation (304s on both route families), HTTP/1.1 keep-alive with
// explicit Connection: close, and the uniform structured 400/404 error
// bodies.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/study.h"
#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "store/store_service.h"
#include "store/study_json.h"
#include "trace/record.h"
#include "util/socket.h"

namespace adscope {
namespace {

class QueryApiTest : public ::testing::Test {
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

  /// A fed serving stack: LiveStudy with the sample trace sealed in,
  /// its SnapshotTree (fed through on_seal), and an HttpEndpoint over
  /// both. Declaration order matters: seal callbacks write into the
  /// store, so it must outlive the study.
  struct Stack {
    store::StoreService store;
    live::LiveStudy study;
    live::HttpEndpoint endpoint;

    explicit Stack(std::size_t threads, std::size_t cache_bytes = 8u << 20)
        : store(store_options(cache_bytes), &eco().asn_db()),
          study(engine(), eco().abp_registry(), live_options(threads)),
          endpoint(study, util::ListenSocket::tcp(0), &eco().asn_db(),
                   nullptr, &store) {
      sample_trace().replay(study);
      study.seal_all();
      study.flush();
      store.set_live_stats([this] {
        return store::LiveStats{study.watermark_ms(),
                                study.records_ingested(), study.total_drops(),
                                study.current_bucket()};
      });
    }
    ~Stack() { study.close(); }

    live::HttpEndpoint::Response get(const std::string& target,
                                     const std::string& if_none_match = "") {
      return endpoint.handle("GET", target, if_none_match);
    }

   private:
    store::StoreServiceOptions store_options(std::size_t cache_bytes) {
      store::StoreServiceOptions options;
      options.tree.study = study_options();
      options.tree.bucket_seconds = 300;
      options.cache.capacity_bytes = cache_bytes;
      return options;
    }
    static core::StudyOptions study_options() {
      core::StudyOptions options;
      options.inference.min_requests = 300;
      return options;
    }
    live::LiveStudyOptions live_options(std::size_t threads) {
      live::LiveStudyOptions options;
      options.study = study_options();
      options.threads = threads;
      options.bucket_seconds = 300;
      options.on_seal = [this](std::uint64_t bucket_id, std::size_t shard,
                               const core::TraceStudy& sealed) {
        store.tree().ingest(bucket_id, shard, sealed);
      };
      return options;
    }
  };

  /// Reads exactly one HTTP response (headers + Content-Length body)
  /// from a connected socket — the framing a keep-alive client needs.
  static std::string recv_response(int fd) {
    std::string response;
    char chunk[4096];
    auto have_headers = [&] {
      return response.find("\r\n\r\n") != std::string::npos;
    };
    while (!have_headers()) {
      if (!util::wait_readable(fd, 5000)) return response;
      const auto n = util::recv_some(fd, chunk, sizeof(chunk));
      if (n == 0) return response;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    const auto header_end = response.find("\r\n\r\n") + 4;
    std::size_t content_length = 0;
    const auto at = response.find("Content-Length: ");
    if (at != std::string::npos && at < header_end) {
      content_length = static_cast<std::size_t>(
          std::strtoull(response.c_str() + at + 16, nullptr, 10));
    }
    while (response.size() < header_end + content_length) {
      if (!util::wait_readable(fd, 5000)) break;
      const auto n = util::recv_some(fd, chunk, sizeof(chunk));
      if (n == 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    return response;
  }

  static std::string body_of(const std::string& response) {
    const auto at = response.find("\r\n\r\n");
    return at == std::string::npos ? std::string() : response.substr(at + 4);
  }
};

TEST_F(QueryApiTest, QueryMatchesLegacyByteForByteAcrossThreadCounts) {
  const struct {
    const char* legacy;
    const char* query;
    int status;
  } pairs[] = {
      {"/study/summary", "/query/summary/*", 200},
      {"/study/traffic", "/query/traffic/*", 200},
      {"/study/users", "/query/users/*", 200},
      {"/study/infra", "/query/infra/*", 200},
      {"/study/summary?window_s=900", "/query/summary/*?window_s=900", 200},
      {"/study/users?window_s=1200", "/query/users/*?window_s=1200", 200},
      {"/study/summary?window_s=abc", "/query/summary/*?window_s=abc", 400},
      {"/study/summary?window_s=0", "/query/summary/*?window_s=0", 400},
      {"/study/users?window_s=99999999999999999999999",
       "/query/users/*?window_s=99999999999999999999999", 400},
      {"/study/nope", "/query/nope/*", 404},
  };
  for (const std::size_t threads : {1u, 2u, 7u}) {
    Stack cached(threads);
    Stack uncached(threads, /*cache_bytes=*/0);
    for (const auto& item : pairs) {
      SCOPED_TRACE(std::to_string(threads) + " threads " + item.legacy);
      // Cold render, cached render, and cache-disabled render: the
      // legacy route answers exactly what its /query target does.
      const auto cold = cached.get(item.query);
      ASSERT_EQ(cold.status, item.status);
      for (auto* stack : {&cached, &uncached}) {
        const auto query = stack->get(item.query);
        const auto legacy = stack->get(item.legacy);
        EXPECT_EQ(legacy.status, query.status);
        EXPECT_EQ(legacy.body, query.body);
        EXPECT_EQ(legacy.etag, query.etag);
        EXPECT_EQ(legacy.body, cold.body);
      }
    }
    EXPECT_GE(cached.store.cache_counters().hits, 1u);
    EXPECT_EQ(uncached.store.cache_counters().entries, 0u);

    // The bodies are the store's leaves merged and rendered: all of
    // them, and the 4 whole 300 s buckets ending at the watermark's.
    const auto stamped = [&](std::uint64_t min_bucket) {
      auto snapshot =
          cached.store.tree().merge(min_bucket, UINT64_MAX, std::nullopt);
      snapshot.watermark_ms = cached.study.watermark_ms();
      snapshot.records_ingested = cached.study.records_ingested();
      snapshot.records_dropped = cached.study.total_drops();
      return snapshot;
    };
    EXPECT_EQ(cached.get("/study/summary").body,
              store::summary_json(stamped(0)));
    EXPECT_EQ(cached.get("/study/users?window_s=1200").body,
              store::users_json(stamped(cached.study.current_bucket() - 3)));
  }
}

TEST_F(QueryApiTest, LegacyRouteHitsTheQueryCacheEntry) {
  Stack stack(2);
  ASSERT_EQ(stack.get("/query/summary/*").status, 200);  // warm-up render
  const auto before = stack.store.cache_counters();
  ASSERT_EQ(stack.get("/study/summary").status, 200);
  const auto after = stack.store.cache_counters();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(QueryApiTest, EtagRevalidationAnswers304) {
  Stack stack(2);
  for (const std::string& target : {std::string("/study/summary"),
                                   std::string("/query/summary/*"),
                                   std::string("/query/buckets")}) {
    const auto first = stack.get(target);
    ASSERT_EQ(first.status, 200) << target;
    ASSERT_FALSE(first.etag.empty()) << target;
    EXPECT_EQ(first.etag.front(), '"') << target;

    const auto revalidated = stack.get(target, first.etag);
    EXPECT_EQ(revalidated.status, 304) << target;
    EXPECT_TRUE(revalidated.body.empty()) << target;
    EXPECT_EQ(revalidated.etag, first.etag) << target;

    EXPECT_EQ(stack.get(target, "*").status, 304) << target;
    EXPECT_EQ(stack.get(target, "\"stale\"").status, 200) << target;
  }
  // One fingerprint serves both route families, so a tag fetched
  // through /query revalidates its legacy alias.
  const auto query_tag = stack.get("/query/summary/*").etag;
  EXPECT_EQ(stack.get("/study/summary").etag, query_tag);
  const auto revalidated = stack.get("/study/summary", query_tag);
  EXPECT_EQ(revalidated.status, 304);
  EXPECT_TRUE(revalidated.body.empty());
}

TEST_F(QueryApiTest, KeepAliveServesManyRequestsPerConnection) {
  Stack stack(2);
  stack.endpoint.start();
  auto fd = util::connect_tcp("127.0.0.1", stack.endpoint.port());

  const std::string request =
      "GET /query/summary/latest HTTP/1.1\r\nHost: t\r\n\r\n";
  std::vector<std::string> bodies;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(util::send_all(fd.get(), request));
    const auto response = recv_response(fd.get());
    ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    bodies.push_back(body_of(response));
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_EQ(bodies[1], bodies[2]);

  // An explicit close is honored: the server says so and the socket
  // reaches EOF.
  ASSERT_TRUE(util::send_all(
      fd.get(),
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  const auto last = recv_response(fd.get());
  EXPECT_NE(last.find("Connection: close"), std::string::npos);
  char extra[16];
  EXPECT_TRUE(util::wait_readable(fd.get(), 5000));
  EXPECT_EQ(util::recv_some(fd.get(), extra, sizeof(extra)), 0u);
  stack.endpoint.stop();
}

TEST_F(QueryApiTest, Http10ClosesByDefault) {
  Stack stack(1);
  stack.endpoint.start();
  auto fd = util::connect_tcp("127.0.0.1", stack.endpoint.port());
  ASSERT_TRUE(util::send_all(fd.get(), "GET /healthz HTTP/1.0\r\n\r\n"));
  const auto response = recv_response(fd.get());
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  char extra[16];
  EXPECT_TRUE(util::wait_readable(fd.get(), 5000));
  EXPECT_EQ(util::recv_some(fd.get(), extra, sizeof(extra)), 0u);
  stack.endpoint.stop();
}

TEST_F(QueryApiTest, Etag304OverTheWire) {
  Stack stack(2);
  stack.endpoint.start();
  auto fd = util::connect_tcp("127.0.0.1", stack.endpoint.port());
  ASSERT_TRUE(util::send_all(
      fd.get(), "GET /query/summary/* HTTP/1.1\r\nHost: t\r\n\r\n"));
  const auto first = recv_response(fd.get());
  const auto tag_at = first.find("ETag: ");
  ASSERT_NE(tag_at, std::string::npos) << first;
  const auto etag =
      first.substr(tag_at + 6, first.find("\r\n", tag_at) - tag_at - 6);

  ASSERT_TRUE(util::send_all(fd.get(),
                             "GET /query/summary/* HTTP/1.1\r\nHost: t\r\n"
                             "If-None-Match: " + etag +
                                 "\r\nConnection: close\r\n\r\n"));
  const auto second = recv_response(fd.get());
  EXPECT_NE(second.find("304 Not Modified"), std::string::npos) << second;
  EXPECT_TRUE(body_of(second).empty());
  stack.endpoint.stop();
}

TEST_F(QueryApiTest, StructuredErrorsAreUniformAcrossRoutes) {
  Stack stack(2);
  const struct {
    const char* target;
    int status;
    const char* param;
  } cases[] = {
      {"/study/summary?window_s=abc", 400, "window_s"},
      {"/study/summary?window_s=0", 400, "window_s"},
      {"/study/users?window_s=99999999999999999999999", 400, "window_s"},
      {"/query/summary/*?window_s=abc", 400, "window_s"},
      {"/query/summary/*?window_s=0", 400, "window_s"},
      {"/query/summary/*?fields=", 400, "fields"},
      {"/query/summary/*?fields=trace,nope", 400, "fields"},
      {"/query/summary/@9..@2", 400, ""},
      {"/query/summary/*/x", 400, ""},
      {"/query/users/latest?window_s=60", 400, "window_s"},
      {"/nope", 404, nullptr},
      {"/study/nope", 404, nullptr},
      {"/query/nope/*", 404, nullptr},
      {"/query/rollup/nope", 404, nullptr},
      {"/query/rollup/users-daily/1999-01-01", 404, nullptr},
  };
  for (const auto& item : cases) {
    const auto response = stack.get(item.target);
    EXPECT_EQ(response.status, item.status) << item.target;
    EXPECT_EQ(response.content_type, "application/json") << item.target;
    EXPECT_NE(response.body.find("\"error\""), std::string::npos)
        << item.target << ": " << response.body;
    EXPECT_NE(response.body.find("\"status\":" + std::to_string(item.status)),
              std::string::npos)
        << item.target << ": " << response.body;
    if (item.param != nullptr && *item.param != '\0') {
      EXPECT_NE(response.body.find("\"param\":\"" + std::string(item.param) +
                                   "\""),
                std::string::npos)
          << item.target << ": " << response.body;
    }
    EXPECT_TRUE(response.etag.empty()) << item.target;
  }
  // Errors never get cached or revalidated.
  EXPECT_EQ(stack.get("/query/nope/*", "\"anything\"").status, 404);
}

TEST_F(QueryApiTest, QueryRoutesAnswer404WithoutStore) {
  // An endpoint wired without a store keeps the legacy surface but
  // rejects /query cleanly.
  core::StudyOptions study_options;
  study_options.inference.min_requests = 300;
  live::LiveStudyOptions options;
  options.study = study_options;
  options.threads = 1;
  options.bucket_seconds = 300;
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0),
                              &eco().asn_db());
  const auto response = endpoint.handle("GET", "/query/summary/*");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("snapshot store"), std::string::npos);
  study.close();
}

TEST_F(QueryApiTest, MethodsOtherThanGetAre405) {
  Stack stack(1);
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD"}) {
    EXPECT_EQ(stack.endpoint.handle(method, "/query/summary/*").status, 405)
        << method;
  }
}

}  // namespace
}  // namespace adscope
