#include "live/stream_server.h"

#include <memory>
#include <system_error>
#include <utility>

#include "trace/stream.h"

namespace adscope::live {

/// Per-connection ingest state machine. The reactor serializes the
/// callbacks for one connection; LiveStudy ingest is thread-safe, so
/// connections on different loops feed the study concurrently. The
/// decoder hands the study batches of views into the received bytes.
class TraceStreamServer::IngestHandler final : public util::Reactor::Handler {
 public:
  explicit IngestHandler(TraceStreamServer& server)
      : server_(server),
        decoder_(static_cast<trace::TraceBatchSink&>(server.study_)) {}

  void on_open(util::Reactor::Conn& conn) override {
    const auto active =
        server_.connections_active_.load(std::memory_order_relaxed);
    if (active >= server_.options_.max_connections) {
      server_.connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      conn.shutdown();  // nothing queued: closes immediately
      return;
    }
    admitted_ = true;
    server_.connections_total_.fetch_add(1, std::memory_order_relaxed);
    server_.connections_active_.fetch_add(1, std::memory_order_relaxed);
  }

  bool on_data(util::Reactor::Conn&, std::string_view data) override {
    server_.bytes_received_.fetch_add(data.size(),
                                      std::memory_order_relaxed);
    try {
      decoder_.feed(data);
    } catch (const trace::TraceFormatError&) {
      server_.decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (decoder_.finished()) {
      // End marker = "trace complete": make every record visible to
      // the query side before the next scrape.
      server_.study_.seal_all();
      server_.study_.flush();
      server_.streams_completed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void on_close() noexcept override {
    if (admitted_) {
      server_.connections_active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

 private:
  TraceStreamServer& server_;
  trace::StreamDecoder decoder_;
  bool admitted_ = false;
};

TraceStreamServer::TraceStreamServer(LiveStudy& study,
                                     util::ListenSocket socket,
                                     StreamServerOptions options)
    : study_(study), socket_(std::move(socket)), options_(options) {
  if (options_.poll_ms <= 0) options_.poll_ms = 100;
  if (options_.read_buffer_bytes == 0) options_.read_buffer_bytes = 4096;
  backend_ = util::resolve_net_backend(options_.net, &backend_note_);
}

TraceStreamServer::~TraceStreamServer() { stop(); }

void TraceStreamServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  util::Reactor::Options reactor_options;
  reactor_options.read_chunk_bytes = options_.read_buffer_bytes;
  reactor_options.tick_ms = options_.poll_ms;
  // Every admitted connection can have data ready in the same reactor
  // pass; a smaller pool makes multishot recvs die with ENOBUFS and
  // forces a re-arm cycle per burst.
  reactor_options.uring_buffers = options_.max_connections + 64;
  reactor_ = util::Reactor::make(backend_, reactor_options);
  reactor_->serve(socket_, [this] {
    return std::make_unique<IngestHandler>(*this);
  });
  reactor_->set_tick([this] { tick(); });
  reactor_->start();
}

void TraceStreamServer::stop() {
  if (!running_.load()) return;
  if (reactor_ != nullptr) reactor_->stop();
  reactor_.reset();
  running_.store(false);
}

void TraceStreamServer::tick() {
  if (!options_.auto_maintain) return;
  const auto bucket = study_.current_bucket();
  if (bucket != last_maintained_bucket_ && study_.records_ingested() > 0) {
    study_.maintain();
    last_maintained_bucket_ = bucket;
  }
}

}  // namespace adscope::live
