#include "live/http_endpoint.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/simd.h"

namespace adscope::live {

namespace {

std::string path_of(const std::string& target) {
  const auto query_at = target.find('?');
  return query_at == std::string::npos ? target : target.substr(0, query_at);
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Value of the first `name` header in a CRLF-separated header block
/// (case-insensitive name match); empty when absent.
std::string_view header_value(std::string_view headers, std::string_view name) {
  std::size_t at = 0;
  while (at < headers.size()) {
    auto line_end = headers.find("\r\n", at);
    if (line_end == std::string_view::npos) line_end = headers.size();
    const auto line = headers.substr(at, line_end - at);
    const auto colon = line.find(':');
    if (colon != std::string_view::npos &&
        iequals(trim(line.substr(0, colon)), name)) {
      return trim(line.substr(colon + 1));
    }
    at = line_end + 2;
  }
  return {};
}

/// Number of CRLF-separated lines in a header block (a trailing
/// unterminated line counts).
std::size_t header_count(std::string_view headers) {
  std::size_t count = 0;
  std::size_t at = 0;
  while (at < headers.size()) {
    ++count;
    const auto line_end = headers.find("\r\n", at);
    if (line_end == std::string_view::npos) break;
    at = line_end + 2;
  }
  return count;
}

/// The legacy route `/study/<agg>[?q]` is an alias of
/// `/query/<agg>/*[?q]`; every other target passes through unchanged
/// (a deeper `/study/` path reaches the parser as is and answers 404).
std::string store_target(const std::string& target) {
  constexpr std::string_view kLegacy = "/study/";
  if (target.rfind(kLegacy, 0) != 0) return target;
  const auto query_at = target.find('?');
  const auto aggregate = std::string_view(target).substr(
      kLegacy.size(), query_at - kLegacy.size());
  if (aggregate.find('/') != std::string_view::npos) return target;
  std::string rewritten = "/query/";
  rewritten.append(aggregate).append("/*");
  if (query_at != std::string::npos) rewritten.append(target, query_at);
  return rewritten;
}

store::QueryError make_error(int status, std::string message,
                             std::string param = "") {
  return {status, std::move(message), std::move(param)};
}

HttpEndpoint::Response error_response(int status, std::string message,
                                      std::string param = "") {
  return {status, "application/json",
          store::error_json(make_error(status, std::move(message),
                                       std::move(param))),
          ""};
}

}  // namespace

/// Per-connection HTTP state machine. Requests are headers-only GETs,
/// so one request = one "\r\n\r\n"-terminated block; bytes past the
/// terminator stay buffered for the next (pipelined) request. The
/// idle timeout rides the reactor tick.
class HttpEndpoint::HttpConnHandler final : public util::Reactor::Handler {
 public:
  explicit HttpConnHandler(HttpEndpoint& endpoint)
      : endpoint_(endpoint),
        last_activity_(std::chrono::steady_clock::now()) {}

  void on_open(util::Reactor::Conn& conn) override {
    auto& active = endpoint_.connections_active_;
    if (active.load(std::memory_order_relaxed) >=
        endpoint_.options_.max_connections) {
      // Over capacity: say so instead of silently hanging up, so a
      // well-behaved scraper backs off rather than retrying hot.
      endpoint_.connections_rejected_.fetch_add(1,
                                                std::memory_order_relaxed);
      conn.send(
          "HTTP/1.1 503 Service Unavailable\r\n"
          "Content-Length: 0\r\n"
          "Retry-After: 1\r\n"
          "Connection: close\r\n\r\n");
      conn.shutdown();  // flushes the 503, then closes
      return;
    }
    admitted_ = true;
    active.fetch_add(1, std::memory_order_relaxed);
  }

  bool on_data(util::Reactor::Conn& conn, std::string_view data) override {
    buffer_.append(data);
    last_activity_ = std::chrono::steady_clock::now();
    // Drain every complete request already buffered (pipelining).
    for (;;) {
      // Resume the terminator scan where the last one left off (minus
      // the 3 bytes a split "\r\n\r\n" may have straddled) — a client
      // trickling bytes must not make each scan restart from zero.
      const auto scan_from = scanned_ > 3 ? scanned_ - 3 : 0;
      const auto header_end = buffer_.find("\r\n\r\n", scan_from);
      if (header_end == std::string::npos) {
        scanned_ = buffer_.size();
        const auto& options = endpoint_.options_;
        // An incomplete request may only keep the connection open while
        // it still fits every cap; the request line in particular must
        // terminate within its own budget.
        if (buffer_.size() >= options.max_request_bytes) {
          return reject(conn, error_response(431, "request headers too large"));
        }
        if (buffer_.size() > options.max_request_line_bytes + 2 &&
            std::string_view(buffer_)
                    .substr(0, options.max_request_line_bytes + 2)
                    .find("\r\n") == std::string_view::npos) {
          return reject(conn, error_response(431, "request line too long"));
        }
        return true;
      }
      const bool keep_alive = serve_one(conn, header_end);
      scanned_ = 0;
      if (!keep_alive) return false;
    }
  }

  bool on_tick(util::Reactor::Conn&) override {
    if (!admitted_) return true;  // rejection close is already queued
    const auto idle_limit =
        std::chrono::milliseconds(endpoint_.options_.idle_timeout_ms);
    return std::chrono::steady_clock::now() - last_activity_ < idle_limit;
  }

  void on_close() noexcept override {
    if (admitted_) {
      endpoint_.connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

 private:
  /// Answers a protocol violation and closes: the request cannot be
  /// trusted enough to resynchronize the stream afterwards.
  bool reject(util::Reactor::Conn& conn, const Response& response) {
    endpoint_.requests_bad_.fetch_add(1, std::memory_order_relaxed);
    send_response(conn, response, /*keep_alive=*/false);
    return false;
  }

  /// Parses and answers the request ending at `header_end`. Returns
  /// whether the connection stays open.
  bool serve_one(util::Reactor::Conn& conn, std::size_t header_end) {
    const std::string request = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end + 4);

    // Request line: METHOD SP TARGET SP VERSION.
    const auto line_end = request.find("\r\n");
    const auto line =
        line_end == std::string::npos ? request : request.substr(0, line_end);
    const auto headers =
        line_end == std::string::npos
            ? std::string_view{}
            : std::string_view(request).substr(line_end + 2);
    const auto sp1 = line.find(' ');
    const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);

    Response response;
    bool keep_alive = false;
    if (line.size() > endpoint_.options_.max_request_line_bytes) {
      // A pipelined burst can complete a request whose line the
      // incomplete-buffer check never saw; enforce the cap here too.
      return reject(conn, error_response(431, "request line too long"));
    }
    if (header_count(headers) > endpoint_.options_.max_header_count) {
      return reject(conn, error_response(431, "too many header fields"));
    }
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      endpoint_.requests_bad_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(400, "malformed request line");
    } else {
      const auto version = trim(std::string_view(line).substr(sp2 + 1));
      const auto connection = header_value(headers, "connection");
      // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
      if (version == "HTTP/1.0") {
        keep_alive = iequals(connection, "keep-alive");
      } else {
        keep_alive = !iequals(connection, "close");
      }
      const auto if_none_match = header_value(headers, "if-none-match");
      response = endpoint_.handle(line.substr(0, sp1),
                                  line.substr(sp1 + 1, sp2 - sp1 - 1),
                                  std::string(if_none_match));
      endpoint_.requests_served_.fetch_add(1, std::memory_order_relaxed);
      if (response.status >= 400) {
        endpoint_.requests_bad_.fetch_add(1, std::memory_order_relaxed);
      }
      if (response.status == 304) {
        endpoint_.responses_not_modified_.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    if (++served_ >= endpoint_.options_.max_requests_per_connection) {
      keep_alive = false;
    }
    if (!send_response(conn, response, keep_alive)) return false;
    last_activity_ = std::chrono::steady_clock::now();
    return keep_alive;
  }

  static bool send_response(util::Reactor::Conn& conn,
                            const Response& response, bool keep_alive) {
    std::ostringstream out;
    out << "HTTP/1.1 " << status_line(response.status) << "\r\n"
        << "Content-Type: " << response.content_type << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n";
    if (!response.etag.empty()) out << "ETag: " << response.etag << "\r\n";
    out << "Connection: " << (keep_alive ? "keep-alive" : "close")
        << "\r\n\r\n"
        << response.body;
    return conn.send(out.str());
  }

  HttpEndpoint& endpoint_;
  std::string buffer_;
  std::size_t scanned_ = 0;  // buffer_ prefix already scanned for "\r\n\r\n"
  std::size_t served_ = 0;
  bool admitted_ = false;
  std::chrono::steady_clock::time_point last_activity_;
};

HttpEndpoint::HttpEndpoint(LiveStudy& study, util::ListenSocket socket,
                           const netdb::AsnDatabase* /*asn_db*/,
                           const TraceStreamServer* ingest,
                           store::StoreService* store,
                           HttpEndpointOptions options)
    : study_(study),
      socket_(std::move(socket)),
      ingest_(ingest),
      store_(store),
      options_(options) {
  if (options_.poll_ms <= 0) options_.poll_ms = 100;
  if (options_.max_request_bytes < 64) options_.max_request_bytes = 64;
  if (options_.max_request_line_bytes < 16) {
    options_.max_request_line_bytes = 16;
  }
  if (options_.max_header_count == 0) options_.max_header_count = 1;
  if (options_.idle_timeout_ms <= 0) options_.idle_timeout_ms = 5000;
  if (options_.max_requests_per_connection == 0) {
    options_.max_requests_per_connection = 1;
  }
  backend_ = util::resolve_net_backend(options_.net, &backend_note_);
}

HttpEndpoint::~HttpEndpoint() { stop(); }

std::unique_ptr<util::Reactor::Handler> HttpEndpoint::make_connection_handler() {
  return std::make_unique<HttpConnHandler>(*this);
}

void HttpEndpoint::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  util::Reactor::Options reactor_options;
  reactor_options.tick_ms = options_.poll_ms;
  // Requests are capped at max_request_bytes, so the 64 KiB default
  // read chunk would only bloat the uring buffer slab; and the slab
  // needs a buffer per admitted connection for burst delivery (see
  // stream_server.cc).
  reactor_options.read_chunk_bytes =
      std::max<std::size_t>(options_.max_request_bytes, 4096);
  reactor_options.uring_buffers = options_.max_connections + 64;
  reactor_ = util::Reactor::make(backend_, reactor_options);
  reactor_->serve(socket_, [this] {
    return std::make_unique<HttpConnHandler>(*this);
  });
  reactor_->start();
}

void HttpEndpoint::stop() {
  if (!running_.load()) return;
  if (reactor_ != nullptr) reactor_->stop();
  reactor_.reset();
  running_.store(false);
}

std::string HttpEndpoint::status_line(int status) {
  switch (status) {
    case 200:
      return "200 OK";
    case 304:
      return "304 Not Modified";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 431:
      return "431 Request Header Fields Too Large";
    case 503:
      return "503 Service Unavailable";
    default:
      return std::to_string(status) + " Error";
  }
}

HttpEndpoint::Response HttpEndpoint::handle(
    const std::string& method, const std::string& target,
    const std::string& if_none_match) const {
  if (method != "GET") {
    return error_response(405, "only GET is supported");
  }
  const auto path = path_of(target);

  Response response;
  if (path == "/healthz") {
    response = {200, "text/plain", "ok\n", ""};
  } else if (path == "/metrics") {
    response = {200, "text/plain; version=0.0.4", render_metrics(), ""};
  } else if (path == "/query" || path.rfind("/query/", 0) == 0 ||
             path.rfind("/study/", 0) == 0) {
    if (store_ == nullptr) {
      response = error_response(404, "snapshot store disabled");
    } else {
      const auto store_response = store_->query(store_target(target));
      response = {store_response.status, store_response.content_type,
                  store_response.body, store_response.etag};
    }
  } else {
    response = error_response(404, "no such route");
  }

  if (response.status == 200 && !response.etag.empty() &&
      !if_none_match.empty() &&
      (if_none_match == response.etag || if_none_match == "*")) {
    return {304, response.content_type, "", response.etag};
  }
  return response;
}

std::string HttpEndpoint::render_metrics() const {
  std::ostringstream out;
  const auto ingested = study_.records_ingested();

  // Ingest rate: records since the previous scrape over the wall time
  // between scrapes (a gauge; Prometheus' own rate() over the counter
  // is the robust version, this one is for `curl | grep`).
  double rate = 0.0;
  {
    util::MutexLock lock(rate_mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (scraped_before_) {
      const std::chrono::duration<double> dt = now - last_scrape_time_;
      if (dt.count() > 0 && ingested >= last_scrape_records_) {
        rate = static_cast<double>(ingested - last_scrape_records_) /
               dt.count();
      }
    }
    last_scrape_records_ = ingested;
    last_scrape_time_ = now;
    scraped_before_ = true;
  }

  out << "# HELP adscoped_records_ingested_total Records accepted into "
         "shard queues.\n"
      << "# TYPE adscoped_records_ingested_total counter\n"
      << "adscoped_records_ingested_total " << ingested << "\n";
  out << "# HELP adscoped_records_dropped_total Records dropped before "
         "aggregation, by reason.\n"
      << "# TYPE adscoped_records_dropped_total counter\n"
      << "adscoped_records_dropped_total{reason=\"late\"} "
      << study_.late_drops() << "\n"
      << "adscoped_records_dropped_total{reason=\"pre_meta\"} "
      << study_.pre_meta_drops() << "\n"
      << "adscoped_records_dropped_total{reason=\"closed\"} "
      << study_.closed_drops() << "\n";
  out << "# HELP adscoped_ingest_rate_records_per_second Records ingested "
         "per second since the previous scrape.\n"
      << "# TYPE adscoped_ingest_rate_records_per_second gauge\n"
      << "adscoped_ingest_rate_records_per_second " << rate << "\n";
  // Ingest always decodes off sockets (StreamDecoder); the mmap
  // surface exists only for on-disk traces. An info-style gauge so
  // dashboards can tell the surfaces apart uniformly.
  out << "# HELP adscoped_ingest_io Active trace decode surface "
         "(constant 1 for the mode in use).\n"
      << "# TYPE adscoped_ingest_io gauge\n"
      << "adscoped_ingest_io{mode=\"stream\"} 1\n";
  // Same info-gauge idiom for the active SIMD dispatch level, so a
  // fleet dashboard can spot a daemon silently running scalar kernels.
  out << "# HELP adscoped_simd Active SIMD kernel dispatch level "
         "(constant 1 for the level in use).\n"
      << "# TYPE adscoped_simd gauge\n"
      << "adscoped_simd{level=\"" << util::simd::to_string(
             util::simd::active_level()) << "\"} 1\n";
  // Same idiom for the network backend, per serving role: a fleet
  // dashboard can spot a daemon that fell back off io_uring.
  out << "# HELP adscoped_net_backend Active network backend per role "
         "(constant 1 for the backend in use).\n"
      << "# TYPE adscoped_net_backend gauge\n"
      << "adscoped_net_backend{role=\"http\",backend=\""
      << util::to_string(backend_) << "\"} 1\n";
  if (ingest_ != nullptr) {
    out << "adscoped_net_backend{role=\"ingest\",backend=\""
        << util::to_string(ingest_->backend()) << "\"} 1\n";
  }
  out << "# HELP adscoped_queue_depth Records waiting in shard queues.\n"
      << "# TYPE adscoped_queue_depth gauge\n"
      << "adscoped_queue_depth " << study_.queue_depth() << "\n";
  out << "# HELP adscoped_buckets Open (not yet sealed) aggregation "
         "buckets held in memory.\n"
      << "# TYPE adscoped_buckets gauge\n"
      << "adscoped_buckets " << study_.bucket_count() << "\n";
  out << "# HELP adscoped_buckets_sealed_total (shard, bucket) studies "
         "sealed so far.\n"
      << "# TYPE adscoped_buckets_sealed_total counter\n"
      << "adscoped_buckets_sealed_total " << study_.buckets_sealed() << "\n";
  out << "# HELP adscoped_metas_ignored_total Trace meta blocks ignored "
         "after the first.\n"
      << "# TYPE adscoped_metas_ignored_total counter\n"
      << "adscoped_metas_ignored_total " << study_.metas_ignored() << "\n";
  out << "# HELP adscoped_watermark_ms Highest record timestamp seen "
         "(trace clock).\n"
      << "# TYPE adscoped_watermark_ms gauge\n"
      << "adscoped_watermark_ms " << study_.watermark_ms() << "\n";
  if (store_ != nullptr) {
    const auto& tree = store_->tree();
    out << "# HELP adscoped_store_epoch Snapshot-store mutation epoch "
           "(bumps on ingest and eviction).\n"
        << "# TYPE adscoped_store_epoch gauge\n"
        << "adscoped_store_epoch " << tree.epoch() << "\n";
    out << "# HELP adscoped_store_buckets Time buckets retained in the "
           "snapshot store.\n"
        << "# TYPE adscoped_store_buckets gauge\n"
        << "adscoped_store_buckets " << tree.bucket_count() << "\n";
    out << "# HELP adscoped_store_leaves (bucket, shard) snapshot leaves "
           "retained.\n"
        << "# TYPE adscoped_store_leaves gauge\n"
        << "adscoped_store_leaves " << tree.leaf_count() << "\n";
    out << "# HELP adscoped_store_leaves_ingested_total Sealed studies "
           "ingested into the store.\n"
        << "# TYPE adscoped_store_leaves_ingested_total counter\n"
        << "adscoped_store_leaves_ingested_total " << tree.leaves_ingested()
        << "\n";
    out << "# HELP adscoped_store_buckets_evicted_total Store buckets "
           "evicted by retention.\n"
        << "# TYPE adscoped_store_buckets_evicted_total counter\n"
        << "adscoped_store_buckets_evicted_total " << tree.buckets_evicted()
        << "\n";
    const auto cache = store_->cache_counters();
    out << "# HELP adscoped_store_cache_hits_total Query responses served "
           "from the response cache.\n"
        << "# TYPE adscoped_store_cache_hits_total counter\n"
        << "adscoped_store_cache_hits_total " << cache.hits << "\n";
    out << "# HELP adscoped_store_cache_misses_total Query responses "
           "rendered on demand.\n"
        << "# TYPE adscoped_store_cache_misses_total counter\n"
        << "adscoped_store_cache_misses_total " << cache.misses << "\n";
    out << "# HELP adscoped_store_cache_evictions_total Cached responses "
           "evicted by the LRU byte budget.\n"
        << "# TYPE adscoped_store_cache_evictions_total counter\n"
        << "adscoped_store_cache_evictions_total " << cache.evictions << "\n";
    out << "# HELP adscoped_store_cache_entries Responses currently "
           "cached.\n"
        << "# TYPE adscoped_store_cache_entries gauge\n"
        << "adscoped_store_cache_entries " << cache.entries << "\n";
    out << "# HELP adscoped_store_cache_bytes Bytes held by the response "
           "cache.\n"
        << "# TYPE adscoped_store_cache_bytes gauge\n"
        << "adscoped_store_cache_bytes " << cache.bytes << "\n";
  }

  if (ingest_ != nullptr) {
    out << "# HELP adscoped_stream_connections_total Ingest connections "
           "accepted.\n"
        << "# TYPE adscoped_stream_connections_total counter\n"
        << "adscoped_stream_connections_total "
        << ingest_->connections_total() << "\n";
    out << "# HELP adscoped_stream_connections_active Ingest connections "
           "currently open.\n"
        << "# TYPE adscoped_stream_connections_active gauge\n"
        << "adscoped_stream_connections_active "
        << ingest_->connections_active() << "\n";
    out << "# HELP adscoped_stream_connections_rejected_total Ingest "
           "connections refused over the cap.\n"
        << "# TYPE adscoped_stream_connections_rejected_total counter\n"
        << "adscoped_stream_connections_rejected_total "
        << ingest_->connections_rejected() << "\n";
    out << "# HELP adscoped_stream_bytes_received_total Raw bytes read "
           "from ingest sockets.\n"
        << "# TYPE adscoped_stream_bytes_received_total counter\n"
        << "adscoped_stream_bytes_received_total "
        << ingest_->bytes_received() << "\n";
    out << "# HELP adscoped_stream_decode_errors_total Connections "
           "dropped on malformed input.\n"
        << "# TYPE adscoped_stream_decode_errors_total counter\n"
        << "adscoped_stream_decode_errors_total " << ingest_->decode_errors()
        << "\n";
    out << "# HELP adscoped_streams_completed_total Streams that sent a "
           "clean end marker.\n"
        << "# TYPE adscoped_streams_completed_total counter\n"
        << "adscoped_streams_completed_total " << ingest_->streams_completed()
        << "\n";
  }

  out << "# HELP adscoped_http_requests_total HTTP requests answered.\n"
      << "# TYPE adscoped_http_requests_total counter\n"
      << "adscoped_http_requests_total "
      << requests_served_.load(std::memory_order_relaxed) << "\n";
  out << "# HELP adscoped_http_requests_bad_total HTTP requests answered "
         "with a 4xx/5xx status.\n"
      << "# TYPE adscoped_http_requests_bad_total counter\n"
      << "adscoped_http_requests_bad_total "
      << requests_bad_.load(std::memory_order_relaxed) << "\n";
  out << "# HELP adscoped_http_not_modified_total Conditional requests "
         "answered 304 from the ETag match.\n"
      << "# TYPE adscoped_http_not_modified_total counter\n"
      << "adscoped_http_not_modified_total "
      << responses_not_modified_.load(std::memory_order_relaxed) << "\n";
  out << "# HELP adscoped_http_connections_rejected_total Connections "
         "answered 503 over the connection cap.\n"
      << "# TYPE adscoped_http_connections_rejected_total counter\n"
      << "adscoped_http_connections_rejected_total "
      << connections_rejected_.load(std::memory_order_relaxed) << "\n";
  return out.str();
}

}  // namespace adscope::live
