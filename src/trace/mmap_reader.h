// Zero-copy ".adst" reader over a memory-mapped file.
//
// Where FileTraceReader pulls the stream byte-by-byte through an
// std::ifstream and builds ~7 heap strings per HTTP record, this reader
// maps the whole file once and decodes records into
// HttpTransactionView / TlsFlowView structs whose string fields point
// straight into the mapping. Dictionary-encoded fields (host, UA,
// content type) resolve through an interned table of string_views into
// the mapping — a dictionary hit costs an index, never a copy — so the
// warm decode loop performs zero heap allocations per record (asserted
// by the operator-new hook test in tests/test_trace_mmap.cpp).
//
// Offsets are 64-bit throughout: multi-GiB traces map and decode the
// same as small ones (the >2 GiB sparse-trace CI case exercises this).
//
// Lifetime: views are valid only until the sink callback returns (see
// trace/view.h); the mapping itself lives for the reader's lifetime and
// is unmapped by the destructor. Replay methods are restartable — each
// call decodes the record stream from the beginning.
//
// Not every input can be mapped: sockets, pipes and other non-seekable
// streams (the `adscoped` ingest path) must keep using StreamDecoder,
// and callers should consult supported() to fall back to
// FileTraceReader for exotic file systems. Construction throws
// TraceFormatError on malformed headers and std::runtime_error when the
// file cannot be opened or mapped.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"
#include "trace/view.h"
#include "trace/writer.h"

namespace adscope::trace {

class MmapTraceReader {
 public:
  struct Options {
    /// Records per batch handed to TraceBatchSink (order-preserving:
    /// a batch never spans a kind switch).
    std::size_t batch_records = 512;
  };

  /// Which pieces of mapping advice actually took effect (each ::madvise
  /// return is checked; a false here means the kernel refused, or the
  /// reader decodes a caller's buffer and gave no advice — never silent
  /// failure). The mmap constructor always asks for
  /// MADV_SEQUENTIAL, MADV_WILLNEED (readahead for the whole mapping
  /// up front) and, where the kernel has THP, MADV_HUGEPAGE (512x fewer
  /// TLB entries for the sequential decode walk).
  struct AdviceStats {
    bool sequential = false;
    bool willneed = false;
    bool hugepage = false;
  };

  explicit MmapTraceReader(const std::string& path)
      : MmapTraceReader(path, Options{}) {}
  MmapTraceReader(const std::string& path, Options options);
  /// Decodes an already-resident buffer (no file, no mmap): the fuzz
  /// harnesses' entry point, also usable for traces embedded in tests.
  /// `data` must outlive the reader; mapping advice is skipped (the
  /// bytes are not page-aligned and already resident).
  MmapTraceReader(const void* data, std::size_t size)
      : MmapTraceReader(data, size, Options{}) {}
  MmapTraceReader(const void* data, std::size_t size, Options options);
  ~MmapTraceReader();

  MmapTraceReader(const MmapTraceReader&) = delete;
  MmapTraceReader& operator=(const MmapTraceReader&) = delete;

  /// True when `path` names a mappable input (a regular file). The
  /// streaming readers remain the fallback for everything else.
  static bool supported(const std::string& path) noexcept;

  const TraceMeta& meta() const noexcept { return meta_; }
  std::uint64_t file_size() const noexcept { return size_; }
  /// The whole encoded trace (header included), valid for the reader's
  /// lifetime. A second MmapTraceReader(data(), file_size()) is an
  /// independent cursor over the same bytes: the sharded study runs one
  /// per shard.
  const void* data() const noexcept { return map_; }
  const AdviceStats& advice_stats() const noexcept { return advice_; }

  /// Replays every record into a per-record sink via the materializing
  /// adapter. Returns the number of records delivered (meta excluded),
  /// matching FileTraceReader::replay.
  std::uint64_t replay(TraceSink& sink);

  /// Zero-copy batched replay. Returns the number of records delivered
  /// (meta excluded). A sink whose replay_mapped() accepts this reader
  /// replays the mapping itself instead (see TraceBatchSink).
  std::uint64_t replay_batches(TraceBatchSink& sink);

  /// One record's raw wire bytes (tag included), plus the fields replay
  /// pacing needs. `bytes` stays valid for the reader's lifetime.
  struct RawRecord {
    RecordTag tag = RecordTag::kEnd;
    std::uint64_t timestamp_ms = 0;
    std::string_view bytes;
  };

  class RawSink {
   public:
    virtual ~RawSink() = default;
    virtual void on_raw(const RawRecord& record) = 0;
  };

  /// Walks the record stream delivering each record's raw byte span
  /// without materializing anything (the dictionary is still tracked,
  /// so spans carry their inline definitions exactly as written —
  /// concatenating header_bytes() and every span reproduces a valid
  /// stream). Feeds `adscope replay`'s re-encode-free pacing path.
  std::uint64_t replay_raw(RawSink& sink);

  /// The encoded header (magic, version, meta block) — what a raw
  /// replay must send before the record spans.
  std::string_view header_bytes() const noexcept {
    return {map_, records_begin_};
  }

 private:
  std::uint64_t run(TraceBatchSink* sink, RawSink* raw);
  void decode_header();

  const char* map_ = nullptr;
  std::size_t size_ = 0;
  bool owns_map_ = false;  // true only for the mmap constructor
  std::size_t records_begin_ = 0;
  TraceMeta meta_;
  Options options_;
  AdviceStats advice_;

  // Decode state reused across replays (capacity persists, so a warm
  // replay allocates nothing).
  std::vector<std::string_view> dictionary_;  // id 1 = index 0
  std::vector<HttpTransactionView> http_batch_;
  std::vector<TlsFlowView> tls_batch_;
  HttpTransaction record_scratch_;  // replay()'s materialization target
};

}  // namespace adscope::trace
