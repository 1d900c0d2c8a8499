#include "trace/mmap_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "trace/io.h"

namespace adscope::trace {

namespace {

/// Same per-string cap as the istream reader: anything larger is
/// corruption, not a legitimate header field.
constexpr std::uint64_t kMaxString = 1 << 20;

/// Interned dictionary entries cost a string_view slot each for the
/// rest of the pass; a hostile file of one-byte definitions must hit
/// this cap, not exhaust memory. Matches StreamDecoder::kMaxDictEntries.
constexpr std::size_t kMaxDictEntries = 1 << 20;

/// RAII fd so the map/throw paths cannot leak the descriptor.
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

std::uint64_t require_varint(ByteCursor& cursor, const char* what) {
  std::uint64_t value = 0;
  if (!cursor.try_varint(value)) {
    throw TraceFormatError(std::string("truncated trace: missing ") + what);
  }
  return value;
}

std::string_view require_string(ByteCursor& cursor, const char* what) {
  std::string_view value;
  if (!cursor.try_string_view(value, kMaxString)) {
    throw TraceFormatError(std::string("truncated trace: missing ") + what);
  }
  return value;
}

}  // namespace

bool MmapTraceReader::supported(const std::string& path) noexcept {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return false;
  return S_ISREG(st.st_mode);
}

MmapTraceReader::MmapTraceReader(const std::string& path, Options options)
    : options_(options) {
  if (options_.batch_records == 0) options_.batch_records = 1;
  ScopedFd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  struct stat st {};
  if (::fstat(fd.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw std::runtime_error("not a mappable trace file: " + path);
  }
  if (st.st_size == 0) throw TraceFormatError("bad trace magic");
  size_ = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd.fd, 0);
  if (map == MAP_FAILED) {
    throw std::runtime_error("cannot mmap trace file: " + path);
  }
  map_ = static_cast<const char*>(map);
  owns_map_ = true;
  // Decode is a single forward pass; tell the kernel to read ahead and
  // (where supported) to back the mapping with transparent huge pages.
  // Advice is best-effort but never silently ignored: each return is
  // recorded in advice_stats() so callers can see which hints actually
  // took (MADV_HUGEPAGE in particular is EINVAL on kernels built without
  // THP).
  advice_.sequential = ::madvise(map, size_, MADV_SEQUENTIAL) == 0;
  advice_.willneed = ::madvise(map, size_, MADV_WILLNEED) == 0;
#ifdef MADV_HUGEPAGE
  advice_.hugepage = ::madvise(map, size_, MADV_HUGEPAGE) == 0;
#endif
  try {
    decode_header();
  } catch (...) {
    ::munmap(map, size_);
    map_ = nullptr;
    throw;
  }
  http_batch_.reserve(options_.batch_records);
  tls_batch_.reserve(options_.batch_records);
}

MmapTraceReader::MmapTraceReader(const void* data, std::size_t size,
                                 Options options)
    : options_(options) {
  if (options_.batch_records == 0) options_.batch_records = 1;
  if (size == 0) throw TraceFormatError("bad trace magic");
  map_ = static_cast<const char*>(data);
  size_ = size;
  decode_header();  // map_ is borrowed — nothing to unmap on throw
  http_batch_.reserve(options_.batch_records);
  tls_batch_.reserve(options_.batch_records);
}

MmapTraceReader::~MmapTraceReader() {
  if (owns_map_ && map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), size_);
  }
}

void MmapTraceReader::decode_header() {
  ByteCursor cursor{map_, map_ + size_};
  if (cursor.remaining() < sizeof(kTraceMagic) ||
      std::memcmp(cursor.p, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    throw TraceFormatError("bad trace magic");
  }
  cursor.p += sizeof(kTraceMagic);
  const auto version = require_varint(cursor, "version");
  if (version != kTraceVersion && version != kTraceVersionNoHints) {
    throw TraceFormatError("unsupported trace version");
  }
  meta_.name = require_string(cursor, "meta name");
  meta_.start_unix_s = require_varint(cursor, "meta start");
  meta_.duration_s = require_varint(cursor, "meta duration");
  meta_.subscribers =
      static_cast<std::uint32_t>(require_varint(cursor, "meta subscribers"));
  meta_.uplink_gbps =
      static_cast<std::uint32_t>(require_varint(cursor, "meta uplink"));
  if (version >= kTraceVersion) {
    if (!cursor.try_fixed_u64le(meta_.http_count_hint) ||
        !cursor.try_fixed_u64le(meta_.tls_count_hint)) {
      throw TraceFormatError("truncated trace: missing record count hints");
    }
  }
  records_begin_ = static_cast<std::size_t>(cursor.p - map_);
}

std::uint64_t MmapTraceReader::replay(TraceSink& sink) {
  // The scratch record lives in the reader so its string capacities
  // survive across replay() calls — the second replay of the same file
  // materializes every record without touching the heap.
  BatchToRecordAdapter adapter(sink, record_scratch_);
  return replay_batches(adapter);
}

std::uint64_t MmapTraceReader::replay_batches(TraceBatchSink& sink) {
  if (const auto records = sink.replay_mapped(*this)) return *records;
  return run(&sink, nullptr);
}

std::uint64_t MmapTraceReader::replay_raw(RawSink& sink) {
  return run(nullptr, &sink);
}

std::uint64_t MmapTraceReader::run(TraceBatchSink* sink, RawSink* raw) {
  dictionary_.clear();
  http_batch_.clear();
  tls_batch_.clear();
  if (sink != nullptr) sink->on_meta(meta_);

  const auto flush_http = [&] {
    if (!http_batch_.empty()) {
      if (sink != nullptr) sink->on_http_batch(http_batch_);
      http_batch_.clear();
    }
  };
  const auto flush_tls = [&] {
    if (!tls_batch_.empty()) {
      if (sink != nullptr) sink->on_tls_batch(tls_batch_);
      tls_batch_.clear();
    }
  };

  // Dictionary field: id 0 = empty, next-id = inline definition (slice
  // of the mapping, interned for the rest of the pass), known id =
  // table hit. Out-of-range ids are corruption.
  const auto dict_field = [&](ByteCursor& cursor,
                              const char* what) -> std::string_view {
    const auto id = require_varint(cursor, what);
    if (id == 0) return {};
    if (id == dictionary_.size() + 1) {
      if (dictionary_.size() >= kMaxDictEntries) {
        throw TraceFormatError("dictionary entry count exceeds limit");
      }
      const auto value = require_string(cursor, what);
      dictionary_.push_back(value);
      return value;
    }
    if (id > dictionary_.size()) {
      throw TraceFormatError("dictionary id " + std::to_string(id) +
                             " out of range (" +
                             std::to_string(dictionary_.size()) +
                             " entries defined)");
    }
    return dictionary_[static_cast<std::size_t>(id) - 1];
  };

  ByteCursor cursor{map_ + records_begin_, map_ + size_};
  std::uint64_t records = 0;
  std::uint64_t tag = 0;
  const char* const map_end = map_ + size_;
  for (;;) {
    const char* record_start = cursor.p;
    if (record_start + 512 < map_end) {
      // Records average well under 256 bytes, so ~2 records ahead: far
      // enough to cover the decode latency of the current one, close
      // enough that the lines are still resident when reached.
      __builtin_prefetch(record_start + 256);
      __builtin_prefetch(record_start + 512);
    }
    if (!cursor.try_varint(tag)) {
      // try_varint leaves the cursor untouched on failure, so bytes
      // remaining here mean a tag truncated mid-varint.
      if (record_start != cursor.end) {
        throw TraceFormatError("truncated trace: partial record tag");
      }
      break;  // clean EOF without end marker: tolerated, like the
              // istream reader (interrupted writer).
    }
    switch (static_cast<RecordTag>(tag)) {
      case RecordTag::kEnd:
        flush_http();
        flush_tls();
        return records;
      case RecordTag::kHttp: {
        HttpTransactionView view;
        view.timestamp_ms = require_varint(cursor, "http timestamp");
        view.client_ip = static_cast<netdb::IpV4>(
            require_varint(cursor, "http client_ip"));
        view.server_ip = static_cast<netdb::IpV4>(
            require_varint(cursor, "http server_ip"));
        view.server_port =
            static_cast<std::uint16_t>(require_varint(cursor, "http port"));
        view.status_code =
            static_cast<std::uint16_t>(require_varint(cursor, "http status"));
        view.host = dict_field(cursor, "http host");
        view.uri = require_string(cursor, "http uri");
        view.referer = require_string(cursor, "http referer");
        view.user_agent = dict_field(cursor, "http user_agent");
        view.content_type = dict_field(cursor, "http content_type");
        view.location = require_string(cursor, "http location");
        view.content_length = require_varint(cursor, "http content_length");
        view.tcp_handshake_us = static_cast<std::uint32_t>(
            require_varint(cursor, "http tcp_handshake"));
        view.http_handshake_us = static_cast<std::uint32_t>(
            require_varint(cursor, "http http_handshake"));
        view.payload = require_string(cursor, "http payload");
        flush_tls();  // preserve global order across kinds
        if (raw != nullptr) {
          raw->on_raw({RecordTag::kHttp, view.timestamp_ms,
                       {record_start,
                        static_cast<std::size_t>(cursor.p - record_start)}});
        } else {
          http_batch_.push_back(view);
          if (http_batch_.size() >= options_.batch_records) flush_http();
        }
        ++records;
        break;
      }
      case RecordTag::kTls: {
        TlsFlowView flow;
        flow.timestamp_ms = require_varint(cursor, "tls timestamp");
        flow.client_ip =
            static_cast<netdb::IpV4>(require_varint(cursor, "tls client_ip"));
        flow.server_ip =
            static_cast<netdb::IpV4>(require_varint(cursor, "tls server_ip"));
        flow.server_port =
            static_cast<std::uint16_t>(require_varint(cursor, "tls port"));
        flow.bytes = require_varint(cursor, "tls bytes");
        flush_http();  // preserve global order across kinds
        if (raw != nullptr) {
          raw->on_raw({RecordTag::kTls, flow.timestamp_ms,
                       {record_start,
                        static_cast<std::size_t>(cursor.p - record_start)}});
        } else {
          tls_batch_.push_back(flow);
          if (tls_batch_.size() >= options_.batch_records) flush_tls();
        }
        ++records;
        break;
      }
      default:
        throw TraceFormatError("unknown record tag " + std::to_string(tag));
    }
  }
  flush_http();
  flush_tls();
  return records;
}

}  // namespace adscope::trace
