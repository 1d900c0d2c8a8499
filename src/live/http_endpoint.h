// HttpEndpoint — minimal HTTP/1.1 query server for a LiveStudy and its
// snapshot store.
//
// Serves GET only, no TLS. Connections are served by a util::Reactor
// (io_uring/epoll/threads — the `net` option or ADSCOPE_NET selects)
// as non-blocking per-connection state machines. HTTP/1.1 connections
// are kept alive (pipelined requests drain in order) until the client
// sends `Connection: close`, the idle timeout expires, or the
// per-connection request cap is reached; HTTP/1.0 closes after each
// response unless the client asks for keep-alive. Every JSON query
// response carries a strong ETag derived from the serving-state
// fingerprint (tree epoch + ingest counters), so `If-None-Match`
// revalidation answers 304 without rendering. Connections over
// max_connections get `503 Retry-After: 1` and are closed (and
// counted — adscoped_http_connections_rejected_total).
//
// Routes:
//   /healthz                    liveness probe ("ok")
//   /metrics                    Prometheus text format (ingest rate,
//                               queue depth, drops, buckets, store and
//                               cache gauges, HTTP stats)
//   /query/...                  snapshot-store path queries (grammar:
//                               docs/QUERY.md)
//   /study/<agg>[?params]       legacy alias of /query/<agg>/*[?params]
//                               (summary, traffic, users, infra): same
//                               body, ETag and response-cache entry
//
// Both query route families need a store; without one they answer 404.
// Errors are uniform across all routes: unknown paths answer 404 and
// malformed selectors/parameters 400, both with the structured
// `{"error":{...}}` body from store::error_json.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "live/live_study.h"
#include "live/stream_server.h"
#include "netdb/asn_db.h"
#include "store/store_service.h"
#include "util/annotations.h"
#include "util/net_backend.h"
#include "util/reactor.h"
#include "util/socket.h"

namespace adscope::live {

struct HttpEndpointOptions {
  /// Housekeeping cadence — the latency of stop(), the granularity of
  /// the idle timeout.
  int poll_ms = 100;
  /// Untrusted-input caps (all answered 431 and the connection closed,
  /// so a hostile client cannot grow the connection buffer without
  /// limit): total header-block bytes, request-line bytes, and header
  /// field count.
  std::size_t max_request_bytes = 8192;
  std::size_t max_request_line_bytes = 2048;
  std::size_t max_header_count = 64;
  std::size_t max_connections = 32;
  /// Keep-alive connections are closed after this much time without a
  /// complete request.
  int idle_timeout_ms = 5000;
  /// Requests served on one connection before it is closed (bounds how
  /// long a single client can pin a connection slot).
  std::size_t max_requests_per_connection = 100;
  /// Network backend; nullopt = auto (best the kernel supports,
  /// clamped by ADSCOPE_NET).
  std::optional<util::NetBackend> net;
};

class HttpEndpoint {
 public:
  /// `ingest` (nullable) adds the stream server's counters to /metrics;
  /// `store` (nullable) enables the /query and /study routes and the
  /// store gauges. Both must outlive the endpoint.
  HttpEndpoint(LiveStudy& study, util::ListenSocket socket,
               // Unused (the store ranks ASes); kept for perfbench's calls.
               const netdb::AsnDatabase* asn_db = nullptr,
               const TraceStreamServer* ingest = nullptr,
               store::StoreService* store = nullptr,
               HttpEndpointOptions options = {});
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  void start();
  void stop();

  std::uint16_t port() const noexcept { return socket_.port(); }

  /// The backend serving this listener (resolved at construction).
  util::NetBackend backend() const noexcept { return backend_; }
  /// Non-empty when the resolved backend is weaker than requested.
  const std::string& backend_note() const noexcept { return backend_note_; }

  std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Connections answered 503 over the max_connections cap.
  std::uint64_t connections_rejected() const noexcept {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

  struct Response {
    int status = 200;
    std::string content_type = "application/json";
    std::string body;
    /// Strong validator; emitted as an ETag header when non-empty.
    std::string etag;
  };

  /// Route dispatch without the socket layer — what the unit tests
  /// call directly. A non-empty `if_none_match` revalidates: a matching
  /// ETag answers 304 with an empty body.
  Response handle(const std::string& method, const std::string& target,
                  const std::string& if_none_match = "") const;

  /// The Prometheus exposition (also available as /metrics).
  std::string render_metrics() const;

  /// The per-connection HTTP/1.1 state machine the reactor drives,
  /// exposed so tests and fuzz harnesses can feed hostile byte streams
  /// through an in-memory util::Reactor::Conn without a socket. The
  /// endpoint must outlive the handler.
  std::unique_ptr<util::Reactor::Handler> make_connection_handler();

 private:
  class HttpConnHandler;

  static std::string status_line(int status);

  LiveStudy& study_;
  util::ListenSocket socket_;
  const TraceStreamServer* ingest_;
  store::StoreService* store_;
  HttpEndpointOptions options_;
  util::NetBackend backend_;
  std::string backend_note_;

  std::atomic<bool> running_{false};
  std::unique_ptr<util::Reactor> reactor_;
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_bad_{0};
  std::atomic<std::uint64_t> responses_not_modified_{0};

  // Ingest-rate gauge: delta of records_ingested between scrapes.
  mutable util::Mutex rate_mutex_;
  mutable std::uint64_t last_scrape_records_ ADSCOPE_GUARDED_BY(rate_mutex_) =
      0;
  mutable std::chrono::steady_clock::time_point last_scrape_time_
      ADSCOPE_GUARDED_BY(rate_mutex_){};
  mutable bool scraped_before_ ADSCOPE_GUARDED_BY(rate_mutex_) = false;
};

}  // namespace adscope::live
