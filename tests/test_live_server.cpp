// live: sockets end to end — TraceStreamServer, HttpEndpoint, replay.
//
// The acceptance-grade test here is EndToEnd.ReplayMatchesOfflineStudy:
// a trace replayed over TCP into the daemon stack must yield the same
// full report (and, through the snapshot store, the same /study/summary
// JSON) as an offline serial study over the identical record order.
// Plus: graceful stop loses no accepted record, malformed streams are
// counted not fatal, and the HTTP routes answer correctly both
// in-process and over the wire.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "live/replay.h"
#include "live/stream_server.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "sim/rbn_sim.h"
#include "store/store_service.h"
#include "store/study_json.h"
#include "trace/writer.h"
#include "util/net_backend.h"
#include "util/socket.h"

namespace adscope {
namespace {

/// Spin-waits (with sleeps) until `predicate` holds; fails the test on
/// timeout. Socket handoff is asynchronous, so every cross-thread
/// assertion goes through this.
template <typename Predicate>
::testing::AssertionResult eventually(Predicate predicate,
                                      int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ::testing::AssertionFailure() << "condition not met within "
                                       << timeout_ms << " ms";
}

class LiveServerTest : public ::testing::Test {
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
  /// The sample trace on disk, for the replay client.
  static const std::string& trace_path() {
    static const std::string instance = [] {
      // Per process: ctest runs each case in its own process, and a
      // rewrite under another process's mapping raises SIGBUS there.
      const auto path = testing::TempDir() + "live_server_sample_" +
                        std::to_string(::getpid()) + ".adst";
      trace::FileTraceWriter writer(path);
      sample_trace().replay(writer);
      writer.close();
      return path;
    }();
    return instance;
  }
  static core::StudyOptions study_options() {
    core::StudyOptions options;
    options.inference.min_requests = 300;
    return options;
  }
  static std::uint64_t sample_records() {
    return sample_trace().http().size() + sample_trace().tls().size();
  }
  static live::LiveStudyOptions live_options(std::size_t threads) {
    live::LiveStudyOptions options;
    options.study = study_options();
    options.threads = threads;
    // Whole trace in one bucket: the e2e comparison is byte-exact.
    options.bucket_seconds = sample_trace().meta().duration_s;
    return options;
  }
  /// A snapshot store fed by `options.on_seal`, as adscoped wires it:
  /// the /study and /query routes answer from it. It must outlive the
  /// LiveStudy built from `options`; call wire_live_stats once that
  /// study exists.
  static std::unique_ptr<store::StoreService> make_store(
      live::LiveStudyOptions& options) {
    store::StoreServiceOptions store_options;
    store_options.tree.study = options.study;
    store_options.tree.bucket_seconds = options.bucket_seconds;
    auto store =
        std::make_unique<store::StoreService>(store_options, &eco().asn_db());
    options.on_seal = [sink = store.get()](std::uint64_t bucket_id,
                                           std::size_t shard,
                                           const core::TraceStudy& sealed) {
      sink->tree().ingest(bucket_id, shard, sealed);
    };
    return store;
  }
  static void wire_live_stats(store::StoreService& store,
                              const live::LiveStudy& study) {
    store.set_live_stats([&study] {
      return store::LiveStats{study.watermark_ms(), study.records_ingested(),
                              study.total_drops(), study.current_bucket()};
    });
  }
  static std::string report_of(const core::StudyView& view) {
    return core::render_full_report(view, &eco().asn_db());
  }

  /// One short-lived exchange against `port`; Connection: close keeps
  /// the read-until-EOF below from waiting out the keep-alive idle
  /// timeout (tests/test_query_api.cpp covers the keep-alive path).
  static std::string http_get(std::uint16_t port, const std::string& target) {
    auto fd = util::connect_tcp("127.0.0.1", port);
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n";
    EXPECT_TRUE(util::send_all(fd.get(), request));
    std::string response;
    char chunk[4096];
    while (true) {
      if (!util::wait_readable(fd.get(), 5000)) break;
      const auto n = util::recv_some(fd.get(), chunk, sizeof(chunk));
      if (n == 0) break;
      response.append(chunk, n);
    }
    return response;
  }

  static std::string body_of(const std::string& response) {
    const auto at = response.find("\r\n\r\n");
    return at == std::string::npos ? std::string() : response.substr(at + 4);
  }
  static void expect_fan_in_identical(
      std::size_t connections,
      std::initializer_list<std::size_t> thread_counts);
};

// ---------------------------------------------------------------------------

TEST_F(LiveServerTest, EndToEndReplayMatchesOfflineStudy) {
  // Offline reference over the identical record order (time-sorted, as
  // the replay client sends it).
  trace::MemoryTrace sorted = sample_trace();
  live::sort_by_time(sorted);
  core::TraceStudy offline(engine(), eco().abp_registry(), study_options());
  live::replay_time_ordered(sorted, offline);
  offline.finish();
  const auto offline_report = report_of(offline.view());

  auto options = live_options(2);
  const auto store = make_store(options);
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  wire_live_stats(*store, study);
  live::TraceStreamServer server(study, util::ListenSocket::tcp(0));
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0),
                              &eco().asn_db(), &server, store.get());
  server.start();
  endpoint.start();
  ASSERT_NE(server.port(), 0);
  ASSERT_NE(endpoint.port(), 0);

  live::ReplayOptions replay;
  replay.trace_path = trace_path();
  replay.port = server.port();
  const auto stats = live::replay_trace(replay);
  EXPECT_EQ(stats.records, 1 + sample_records());
  EXPECT_GT(stats.bytes, 0u);

  // The end-of-stream marker seals and flushes; wait for it to land.
  ASSERT_TRUE(eventually([&] { return server.streams_completed() == 1; }));
  EXPECT_EQ(server.decode_errors(), 0u);
  EXPECT_EQ(study.records_ingested(), sample_records());
  EXPECT_EQ(study.total_drops(), 0u);

  // Identity 1: the store's merged shard leaves render the offline
  // report.
  EXPECT_EQ(report_of(store->tree().merge(0, UINT64_MAX, std::nullopt).view()),
            offline_report);

  // Identity 2: /study/summary over the wire equals the offline study
  // rendered as the one bucket it covers.
  core::StudySnapshot offline_snapshot(offline.meta(), study_options());
  offline_snapshot.bucket_seconds = options.bucket_seconds;
  offline_snapshot.absorb(offline);
  offline_snapshot.note_bucket(0);
  offline_snapshot.watermark_ms = study.watermark_ms();
  offline_snapshot.records_ingested = study.records_ingested();
  offline_snapshot.records_dropped = study.total_drops();
  const auto wire = http_get(endpoint.port(), "/study/summary");
  EXPECT_NE(wire.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(wire), store::summary_json(offline_snapshot));

  const auto metrics =
      body_of(http_get(endpoint.port(), "/metrics"));
  EXPECT_NE(metrics.find("adscoped_records_ingested_total " +
                         std::to_string(sample_records())),
            std::string::npos);
  EXPECT_NE(metrics.find("adscoped_streams_completed_total 1"),
            std::string::npos);

  endpoint.stop();
  server.stop();
  study.close();
}

TEST_F(LiveServerTest, GracefulStopLosesNoAcceptedRecords) {
  auto options = live_options(2);
  const auto store = make_store(options);
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  live::TraceStreamServer server(study, util::ListenSocket::tcp(0));
  server.start();

  // Stream the bytes WITHOUT the end marker — the peer just goes away,
  // as a real vantage-point feed would on a crash.
  std::ostringstream encoded;
  trace::TraceEncoder encoder(encoded);
  sample_trace().replay(encoder);
  {
    auto fd = util::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(util::send_all(fd.get(), encoded.str()));
  }  // closes without finish()

  ASSERT_TRUE(
      eventually([&] { return study.records_ingested() == sample_records(); }));

  // The shutdown sequence the daemon runs on SIGTERM.
  server.stop();
  study.seal_all();
  study.flush();
  const auto snapshot = store->tree().merge(0, UINT64_MAX, std::nullopt);
  study.close();

  EXPECT_EQ(study.records_ingested(), sample_records());
  EXPECT_EQ(study.total_drops(), 0u);
  EXPECT_EQ(snapshot.view().traffic->requests(), sample_trace().http().size());
  EXPECT_EQ(snapshot.https_flows(), sample_trace().tls().size());
  EXPECT_EQ(server.streams_completed(), 0u);  // no end marker arrived
}

TEST_F(LiveServerTest, MalformedStreamIsCountedNotFatal) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::TraceStreamServer server(study, util::ListenSocket::tcp(0));
  server.start();

  {
    auto fd = util::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(util::send_all(fd.get(), "this is not an adst stream"));
  }
  ASSERT_TRUE(eventually([&] { return server.decode_errors() == 1; }));

  // The server keeps serving: a good stream still lands afterwards.
  std::ostringstream encoded;
  trace::TraceEncoder encoder(encoded);
  sample_trace().replay(encoder);
  encoder.finish();
  {
    auto fd = util::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(util::send_all(fd.get(), encoded.str()));
  }
  ASSERT_TRUE(eventually([&] { return server.streams_completed() == 1; }));
  EXPECT_EQ(study.records_ingested(), sample_records());
  server.stop();
  study.close();
}

TEST_F(LiveServerTest, UnixSocketIngestWorks) {
  const auto socket_path = testing::TempDir() + "adscoped_test.sock";
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::TraceStreamServer server(study,
                                 util::ListenSocket::unix_path(socket_path));
  server.start();

  live::ReplayOptions replay;
  replay.trace_path = trace_path();
  replay.unix_path = socket_path;
  const auto stats = live::replay_trace(replay);
  EXPECT_EQ(stats.records, 1 + sample_records());
  ASSERT_TRUE(eventually([&] { return server.streams_completed() == 1; }));
  EXPECT_EQ(study.records_ingested(), sample_records());
  server.stop();
  study.close();
}

TEST_F(LiveServerTest, PacedReplayStillDeliversEverything) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::TraceStreamServer server(study, util::ListenSocket::tcp(0));
  server.start();

  live::ReplayOptions replay;
  replay.trace_path = trace_path();
  replay.port = server.port();
  // 2 h of trace squeezed into ~70 ms of wall time — enough to take the
  // pacing branch on nearly every record.
  replay.speedup = 100000.0;
  const auto stats = live::replay_trace(replay);
  EXPECT_EQ(stats.records, 1 + sample_records());
  EXPECT_GT(stats.wall_s, 0.0);
  ASSERT_TRUE(eventually([&] { return server.streams_completed() == 1; }));
  EXPECT_EQ(study.records_ingested(), sample_records());
  EXPECT_EQ(study.late_drops(), 0u);
  server.stop();
  study.close();
}

// ---------------------------------------------------------------------------
// HttpEndpoint routing (in-process) and transport behavior.

TEST_F(LiveServerTest, EndpointRoutes) {
  auto options = live_options(1);
  const auto store = make_store(options);
  live::LiveStudy study(engine(), eco().abp_registry(), options);
  wire_live_stats(*store, study);
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0), nullptr,
                              nullptr, store.get());

  EXPECT_EQ(endpoint.handle("GET", "/healthz").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/healthz").body, "ok\n");
  EXPECT_EQ(endpoint.handle("GET", "/metrics").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/summary").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/traffic").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/users").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/infra").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/summary?window_s=60").status, 200);
  EXPECT_EQ(endpoint.handle("GET", "/study/summary?window_s=0").status, 400);
  EXPECT_EQ(endpoint.handle("GET", "/study/summary?window_s=x").status, 400);
  EXPECT_EQ(endpoint.handle("GET", "/study/nope").status, 404);
  EXPECT_EQ(endpoint.handle("GET", "/").status, 404);
  EXPECT_EQ(endpoint.handle("POST", "/healthz").status, 405);
  study.close();
}

TEST_F(LiveServerTest, StudyRoutesWithoutAStoreAnswerTheQuery404) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0));

  const auto query = endpoint.handle("GET", "/query/summary/*");
  ASSERT_EQ(query.status, 404);
  for (const char* target : {"/study/summary", "/study/summary?window_s=60",
                             "/study/nope"}) {
    const auto legacy = endpoint.handle("GET", target);
    EXPECT_EQ(legacy.status, 404) << target;
    EXPECT_EQ(legacy.content_type, query.content_type) << target;
    EXPECT_EQ(legacy.body, query.body) << target;
    EXPECT_TRUE(legacy.etag.empty()) << target;
  }
  study.close();
}

TEST_F(LiveServerTest, EndpointOverTheWire) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0));
  endpoint.start();

  const auto health = http_get(endpoint.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("Connection: close"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const auto missing = http_get(endpoint.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  EXPECT_TRUE(eventually([&] { return endpoint.requests_served() == 2; }));
  endpoint.stop();
  study.close();
}

// ---------------------------------------------------------------------------
// Fan-in determinism across every net backend.
//
// The sample trace is partitioned by subscriber (client_ip) into
// per-connection sub-streams, so each user's records stay on one
// connection in time order — the invariant the sharded study needs for
// a deterministic result. The final report must be byte-identical to
// the offline serial study no matter which backend served the sockets
// or how many ingest threads raced, and a clean shutdown must lose no
// accepted record.
//
// Runs the same check at `connections` fan-in for every backend and
// each ingest thread count in `thread_counts`.
void LiveServerTest::expect_fan_in_identical(
    std::size_t connections, std::initializer_list<std::size_t> thread_counts) {
  // Offline reference over the time-sorted trace.
  trace::MemoryTrace sorted = sample_trace();
  live::sort_by_time(sorted);
  core::TraceStudy offline(engine(), eco().abp_registry(), study_options());
  live::replay_time_ordered(sorted, offline);
  offline.finish();
  const auto offline_report = report_of(offline.view());

  // Per-connection wire bytes: meta + that connection's records (time
  // order preserved from the sorted trace), no end marker — shutdown
  // must not depend on a polite peer.
  std::vector<std::string> wires(connections);
  {
    std::vector<std::ostringstream> outs(connections);
    std::vector<std::unique_ptr<trace::TraceEncoder>> encoders;
    for (auto& out : outs) {
      encoders.push_back(std::make_unique<trace::TraceEncoder>(out));
      encoders.back()->on_meta(sorted.meta());
    }
    for (const auto& txn : sorted.http()) {
      encoders[txn.client_ip % connections]->on_http(txn);
    }
    for (const auto& flow : sorted.tls()) {
      encoders[flow.client_ip % connections]->on_tls(flow);
    }
    for (std::size_t i = 0; i < connections; ++i) wires[i] = outs[i].str();
  }

  for (const auto backend : {util::NetBackend::kThreads,
                             util::NetBackend::kEpoll,
                             util::NetBackend::kUring}) {
    for (const std::size_t threads : thread_counts) {
      SCOPED_TRACE(std::string("backend=") + util::to_string(backend) +
                   " threads=" + std::to_string(threads));
      auto options = live_options(threads);
      const auto store = make_store(options);
      live::LiveStudy study(engine(), eco().abp_registry(), options);
      live::StreamServerOptions server_options;
      // A request above what the kernel supports resolves downward, so
      // the uring leg degrades to epoll (never fails) on old kernels.
      server_options.net = backend;
      live::TraceStreamServer server(study, util::ListenSocket::tcp(0),
                                     server_options);
      server.start();

      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < connections; ++i) {
        clients.emplace_back([&, i] {
          auto fd = util::connect_tcp("127.0.0.1", server.port());
          // Small chunks force mid-record feeds through the decoder's
          // buffered path on every backend.
          std::string_view rest = wires[i];
          while (!rest.empty()) {
            const auto chunk = rest.substr(0, 1400);
            if (!util::send_all(fd.get(), chunk)) break;
            rest.remove_prefix(chunk.size());
          }
        });  // fd closes without an end marker
      }
      for (auto& client : clients) client.join();

      ASSERT_TRUE(eventually([&] {
        return study.records_ingested() == sample_records() &&
               server.connections_total() == connections;
      }));

      // The daemon's SIGTERM sequence: lossless by construction.
      server.stop();
      study.seal_all();
      study.flush();
      const auto snapshot = store->tree().merge(0, UINT64_MAX, std::nullopt);
      study.close();

      EXPECT_EQ(server.connections_total(), connections);
      EXPECT_EQ(server.connections_rejected(), 0u);
      EXPECT_EQ(server.decode_errors(), 0u);
      EXPECT_EQ(study.records_ingested(), sample_records());
      EXPECT_EQ(study.total_drops(), 0u);
      const auto report = report_of(snapshot.view());
      EXPECT_TRUE(report == offline_report)
          << "live report diverged from the offline reference";
    }
  }
}

TEST_F(LiveServerTest, FanInReportIsByteIdenticalAcrossBackends) {
  expect_fan_in_identical(6, {1, 2, 7});
}

// At the ingest server's default max_connections cap (64): no stall,
// every record ingested, nothing rejected. The cap also sizes the
// io_uring backend's provided-buffer pool (max_connections + 64).
TEST_F(LiveServerTest, FanInAtConnectionCapIsByteIdenticalAcrossBackends) {
  expect_fan_in_identical(live::StreamServerOptions{}.max_connections, {2});
}

TEST_F(LiveServerTest, IngestOverCapacityIsCountedAndClosed) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::StreamServerOptions options;
  options.max_connections = 0;  // every connection is over capacity
  live::TraceStreamServer server(study, util::ListenSocket::tcp(0), options);
  server.start();

  auto fd = util::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(eventually([&] { return server.connections_rejected() == 1; }));
  // The rejected peer sees EOF and its bytes never reach the decoder.
  char buf[16];
  EXPECT_TRUE(eventually([&] {
    return util::wait_readable(fd.get(), 100) &&
           util::recv_some(fd.get(), buf, sizeof buf) == 0;
  }));
  EXPECT_EQ(server.connections_total(), 0u);
  EXPECT_EQ(server.decode_errors(), 0u);
  server.stop();
  study.close();
}

// ---------------------------------------------------------------------------
// HTTP over-capacity: a minimal 503 with Retry-After, then close.

TEST_F(LiveServerTest, HttpOverCapacityAnswers503RetryAfter) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::HttpEndpointOptions options;
  options.max_connections = 1;
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0), nullptr,
                              nullptr, nullptr, options);
  endpoint.start();

  // First connection occupies the only slot (keep-alive, held open).
  auto holder = util::connect_tcp("127.0.0.1", endpoint.port());
  ASSERT_TRUE(util::send_all(holder.get(),
                             "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string first;
  char chunk[1024];
  while (first.find("\r\n\r\nok\n") == std::string::npos) {
    ASSERT_TRUE(util::wait_readable(holder.get(), 5000));
    const auto n = util::recv_some(holder.get(), chunk, sizeof chunk);
    ASSERT_GT(n, 0u);
    first.append(chunk, n);
  }
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);

  // Second connection is over capacity: 503 + Retry-After, then EOF.
  auto rejected = util::connect_tcp("127.0.0.1", endpoint.port());
  std::string second;
  while (true) {
    if (!util::wait_readable(rejected.get(), 5000)) break;
    const auto n = util::recv_some(rejected.get(), chunk, sizeof chunk);
    if (n == 0) break;
    second.append(chunk, n);
  }
  EXPECT_NE(second.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(second.find("Retry-After: 1"), std::string::npos);
  EXPECT_NE(second.find("Connection: close"), std::string::npos);
  EXPECT_EQ(endpoint.connections_rejected(), 1u);

  // The held connection still works afterwards.
  const auto metrics = endpoint.render_metrics();
  EXPECT_NE(metrics.find("adscoped_http_connections_rejected_total 1"),
            std::string::npos);
  endpoint.stop();
  study.close();
}

TEST_F(LiveServerTest, MetricsExposeDropAndQueueGauges) {
  live::LiveStudy study(engine(), eco().abp_registry(), live_options(1));
  live::HttpEndpoint endpoint(study, util::ListenSocket::tcp(0));
  const auto metrics = endpoint.render_metrics();
  for (const char* series : {
           "adscoped_records_ingested_total",
           "adscoped_records_dropped_total{reason=\"late\"}",
           "adscoped_records_dropped_total{reason=\"pre_meta\"}",
           "adscoped_records_dropped_total{reason=\"closed\"}",
           "adscoped_ingest_rate_records_per_second",
           "adscoped_queue_depth",
           "adscoped_buckets",
           "adscoped_watermark_ms",
           "adscoped_http_requests_total",
           "adscoped_http_connections_rejected_total",
           "adscoped_net_backend{role=\"http\"",
       }) {
    EXPECT_NE(metrics.find(series), std::string::npos) << series;
  }
  // The backend label echoes the resolved backend.
  EXPECT_NE(metrics.find(std::string("adscoped_net_backend{role=\"http\","
                                     "backend=\"") +
                         util::to_string(endpoint.backend()) + "\"} 1"),
            std::string::npos)
      << metrics;
  study.close();
}

}  // namespace
}  // namespace adscope
