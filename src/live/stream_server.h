// TraceStreamServer — accepts .adst byte streams over TCP or a Unix
// socket and feeds them into a LiveStudy.
//
// Connections are served by a util::Reactor (io_uring, epoll or
// thread-per-connection — util/net_backend.h picks at runtime, the
// `net` option or ADSCOPE_NET clamps). Each connection is a small
// state machine: bytes arrive in on_data and run through a
// trace::StreamDecoder, which decodes them in place (on the uring
// backend, straight out of kernel ring memory) into batches of up to
// StreamDecoder::kBatchRecords views. The study copies each batch once,
// into one arena per shard, and queues each shard's share as one item
// in its bounded shard queue. The queues provide the backpressure: a
// slow analysis stalls the socket reads instead of growing memory.
//
// A clean end-of-stream marker means "this trace is complete": the
// server seals every bucket and flushes the study, so the HTTP views
// immediately reflect the whole stream (the end-to-end identity
// guarantee). A peer that just disconnects leaves its records in the
// normal watermark-driven seal cycle. Malformed streams are dropped and
// counted, never fatal. Connections over max_connections are counted
// as rejected and closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "live/live_study.h"
#include "util/net_backend.h"
#include "util/reactor.h"
#include "util/socket.h"

namespace adscope::live {

struct StreamServerOptions {
  /// Housekeeping cadence — the latency of stop().
  int poll_ms = 100;
  std::size_t read_buffer_bytes = 64 * 1024;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 64;
  /// Call study.maintain() from the reactor tick whenever the
  /// watermark enters a new bucket (off for tests that drive sealing
  /// explicitly).
  bool auto_maintain = true;
  /// Network backend; nullopt = auto (best the kernel supports,
  /// clamped by ADSCOPE_NET).
  std::optional<util::NetBackend> net;
};

class TraceStreamServer {
 public:
  TraceStreamServer(LiveStudy& study, util::ListenSocket socket,
                    StreamServerOptions options = {});
  ~TraceStreamServer();

  TraceStreamServer(const TraceStreamServer&) = delete;
  TraceStreamServer& operator=(const TraceStreamServer&) = delete;

  /// Launches the reactor. Call once.
  void start();

  /// Stops accepting, closes every connection and joins the reactor
  /// threads. In-flight decoded records are already in the study; pair
  /// with study.seal_all()/flush() for a lossless shutdown. Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return socket_.port(); }
  const std::string& unix_socket_path() const noexcept {
    return socket_.path();
  }

  /// The backend serving this listener (resolved at construction).
  util::NetBackend backend() const noexcept { return backend_; }
  /// Non-empty when the resolved backend is weaker than requested
  /// ("uring -> epoll (ADSCOPE_NET clamp)") — for the daemon banner.
  const std::string& backend_note() const noexcept { return backend_note_; }

  // -- observability ---------------------------------------------------
  std::uint64_t connections_total() const noexcept {
    return connections_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_active() const noexcept {
    return connections_active_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_rejected() const noexcept {
    return connections_rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t decode_errors() const noexcept {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  /// Streams that delivered a clean end-of-stream marker.
  std::uint64_t streams_completed() const noexcept {
    return streams_completed_.load(std::memory_order_relaxed);
  }

 private:
  class IngestHandler;

  void tick();

  LiveStudy& study_;
  util::ListenSocket socket_;
  StreamServerOptions options_;
  util::NetBackend backend_;
  std::string backend_note_;

  std::atomic<bool> running_{false};
  std::unique_ptr<util::Reactor> reactor_;
  std::uint64_t last_maintained_bucket_ = UINT64_MAX;  // tick-only

  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> streams_completed_{0};
};

}  // namespace adscope::live
