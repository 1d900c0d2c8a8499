// Zero-copy record views and the batch-oriented sink surface.
//
// The mmap'd reader (mmap_reader.h) and the live StreamDecoder decode
// records into *views*: structs whose string fields are
// std::string_view slices of the mapped file / decode buffer and of the
// reader's interned dictionary. No per-record heap traffic happens on
// the decode side; consumers that need ownership materialize() at the
// last possible boundary (e.g. when a record crosses a thread).
//
// Lifetime contract (asserted in tests/test_trace_mmap.cpp): a view is
// valid only until the sink callback it was delivered through returns.
// Readers may remap, compact or unmap the underlying bytes afterwards —
// a sink that stores views instead of materialized records observes
// dangling memory (ASan-visible). Store HttpTransaction copies, never
// HttpTransactionView.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "trace/record.h"

namespace adscope::trace {

class MmapTraceReader;

/// HttpTransaction with borrowed string fields. Field order and
/// semantics match trace::HttpTransaction exactly.
struct HttpTransactionView {
  std::uint64_t timestamp_ms = 0;
  netdb::IpV4 client_ip = 0;
  netdb::IpV4 server_ip = 0;
  std::uint16_t server_port = 80;
  std::uint16_t status_code = 200;

  std::string_view host;
  std::string_view uri;
  std::string_view referer;
  std::string_view user_agent;
  std::string_view content_type;
  std::string_view location;
  std::uint64_t content_length = 0;

  std::uint32_t tcp_handshake_us = 0;
  std::uint32_t http_handshake_us = 0;

  std::string_view payload;
};

/// TlsFlow carries no string fields, so the owning record is its own
/// view; the alias keeps batch signatures symmetric.
using TlsFlowView = TlsFlow;

/// Copies a view into an owning record, reusing `out`'s string
/// capacity (assign, not construct) — the warm path does no heap work
/// once the scratch record's capacities have grown to fit.
inline void materialize(const HttpTransactionView& view,
                        HttpTransaction& out) {
  out.timestamp_ms = view.timestamp_ms;
  out.client_ip = view.client_ip;
  out.server_ip = view.server_ip;
  out.server_port = view.server_port;
  out.status_code = view.status_code;
  out.host.assign(view.host);
  out.uri.assign(view.uri);
  out.referer.assign(view.referer);
  out.user_agent.assign(view.user_agent);
  out.content_type.assign(view.content_type);
  out.location.assign(view.location);
  out.content_length = view.content_length;
  out.tcp_handshake_us = view.tcp_handshake_us;
  out.http_handshake_us = view.http_handshake_us;
  out.payload.assign(view.payload);
}

inline HttpTransaction materialize(const HttpTransactionView& view) {
  HttpTransaction txn;
  materialize(view, txn);
  return txn;
}

/// Borrows every string field of an owning record (the record must
/// outlive the view).
inline HttpTransactionView as_view(const HttpTransaction& txn) {
  HttpTransactionView view;
  view.timestamp_ms = txn.timestamp_ms;
  view.client_ip = txn.client_ip;
  view.server_ip = txn.server_ip;
  view.server_port = txn.server_port;
  view.status_code = txn.status_code;
  view.host = txn.host;
  view.uri = txn.uri;
  view.referer = txn.referer;
  view.user_agent = txn.user_agent;
  view.content_type = txn.content_type;
  view.location = txn.location;
  view.content_length = txn.content_length;
  view.tcp_handshake_us = txn.tcp_handshake_us;
  view.http_handshake_us = txn.http_handshake_us;
  view.payload = txn.payload;
  return view;
}

/// Batch-oriented consumer of a decoded trace. Batches preserve global
/// record order: a reader flushes the pending batch of one kind before
/// delivering a record of the other, so concatenating the batches in
/// callback order reproduces the exact file order. Views inside a batch
/// are valid only until the callback returns (see file comment).
class TraceBatchSink {
 public:
  virtual ~TraceBatchSink() = default;
  virtual void on_meta(const TraceMeta& meta) = 0;
  virtual void on_http_batch(std::span<const HttpTransactionView> batch) = 0;
  virtual void on_tls_batch(std::span<const TlsFlowView> batch) = 0;

  /// Consulted by MmapTraceReader::replay_batches before it decodes
  /// anything: a sink that can walk the mapping itself (the sharded
  /// study runs one cursor per shard) replays it and returns the record
  /// count replay_batches would have returned. The default declines, and
  /// the reader delivers batches as usual. A wrapper that forwards the
  /// batch calls but not this hook keeps its inner sink on the batch
  /// path.
  virtual std::optional<std::uint64_t> replay_mapped(
      const MmapTraceReader& /*reader*/) {
    return std::nullopt;
  }
};

/// Default adapter preserving the per-record TraceSink contract: each
/// view is materialized into a reused scratch record and forwarded.
/// Steady-state cost is a few memcpys per record — the scratch strings'
/// capacities stop growing once they have seen the largest field.
class BatchToRecordAdapter final : public TraceBatchSink {
 public:
  explicit BatchToRecordAdapter(TraceSink& sink)
      : sink_(&sink), scratch_(&own_scratch_) {}
  /// Borrow an external scratch record whose capacities outlive this
  /// adapter — lets a reader keep its warm-replay guarantee even though
  /// it builds a fresh adapter per replay() call.
  BatchToRecordAdapter(TraceSink& sink, HttpTransaction& scratch)
      : sink_(&sink), scratch_(&scratch) {}

  void on_meta(const TraceMeta& meta) override { sink_->on_meta(meta); }
  void on_http_batch(std::span<const HttpTransactionView> batch) override {
    for (const auto& view : batch) {
      materialize(view, *scratch_);
      sink_->on_http(*scratch_);
    }
  }
  void on_tls_batch(std::span<const TlsFlowView> batch) override {
    for (const auto& flow : batch) sink_->on_tls(flow);
  }

 private:
  TraceSink* sink_;
  HttpTransaction own_scratch_;
  HttpTransaction* scratch_;
};

}  // namespace adscope::trace
