// trace: zero-copy mmap reader and the view/batch surface.
//
// The load-bearing guarantees asserted here:
//  * the mmap reader and the legacy istream reader decode identical
//    records, in identical global order, from the same file;
//  * the warm decode loop (dictionary-hit path) performs ZERO heap
//    allocations per record (global operator-new hook);
//  * corrupted or truncated inputs always fail with TraceFormatError —
//    every prefix of a valid file either decodes or throws, never UB;
//  * views are dead once their delivery callback returns (documented in
//    trace/view.h and asserted with a death test);
//  * raw replay reproduces a byte-stream the legacy reader accepts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/alloc_hook.h"
#include "trace/io.h"
#include "trace/mmap_reader.h"
#include "trace/reader.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "trace/view.h"
#include "trace/writer.h"

namespace adscope {
namespace {

trace::HttpTransaction make_txn(std::uint64_t t) {
  trace::HttpTransaction txn;
  txn.timestamp_ms = t;
  txn.client_ip = 0x0AC80000u + static_cast<netdb::IpV4>(t % 16);
  txn.server_ip = 0x0A010001;
  txn.host = t % 4 == 0 ? "ads.example.test" : "content.example.test";
  txn.uri = "/path/" + std::to_string(t) + "?q=" + std::to_string(t * 3);
  txn.referer = t % 2 == 0 ? "" : "http://page.test/article";
  txn.user_agent = t % 3 == 0 ? "Mozilla/5.0 (X11; Linux)" : "Fetcher/1.0";
  txn.content_type = t % 5 == 0 ? "image/gif" : "text/html";
  txn.location = t % 7 == 0 ? "http://next.test/x" : "";
  txn.content_length = 100 + t;
  txn.status_code = t % 7 == 0 ? 302 : 200;
  txn.tcp_handshake_us = static_cast<std::uint32_t>(1000 + t);
  txn.http_handshake_us = static_cast<std::uint32_t>(2000 + t);
  return txn;
}

trace::TlsFlow make_flow(std::uint64_t t) {
  trace::TlsFlow flow;
  flow.timestamp_ms = t;
  flow.client_ip = 0x0AC80000u + static_cast<netdb::IpV4>(t % 16);
  flow.server_ip = 0x0A020002;
  flow.bytes = 4096 + t;
  return flow;
}

/// Writes a trace with HTTP and TLS records interleaved (kind switches
/// every few records), so batch order preservation is actually
/// exercised.
void write_sample(const std::string& path, std::uint64_t records) {
  trace::FileTraceWriter writer(path);
  trace::TraceMeta meta;
  meta.name = "mmap-test";
  meta.start_unix_s = 1'428'710'400;
  meta.duration_s = 3600;
  meta.subscribers = 16;
  writer.on_meta(meta);
  for (std::uint64_t t = 0; t < records; ++t) {
    if (t % 5 == 3) {
      writer.on_tls(make_flow(t));
    } else {
      writer.on_http(make_txn(t));
    }
  }
  writer.close();
}

/// Records the exact delivery sequence: kind + timestamp per record.
class SequenceSink final : public trace::TraceSink {
 public:
  void on_meta(const trace::TraceMeta&) override {}
  void on_http(const trace::HttpTransaction& txn) override {
    sequence.emplace_back('H', txn.timestamp_ms);
  }
  void on_tls(const trace::TlsFlow& flow) override {
    sequence.emplace_back('T', flow.timestamp_ms);
  }
  std::vector<std::pair<char, std::uint64_t>> sequence;
};

class SequenceBatchSink final : public trace::TraceBatchSink {
 public:
  void on_meta(const trace::TraceMeta&) override {}
  void on_http_batch(std::span<const trace::HttpTransactionView> batch)
      override {
    ++http_batches;
    for (const auto& view : batch) sequence.emplace_back('H', view.timestamp_ms);
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    ++tls_batches;
    for (const auto& flow : batch) sequence.emplace_back('T', flow.timestamp_ms);
  }
  std::vector<std::pair<char, std::uint64_t>> sequence;
  int http_batches = 0;
  int tls_batches = 0;
};

/// Touches every view field without allocating or retaining anything.
class NullBatchSink final : public trace::TraceBatchSink {
 public:
  void on_meta(const trace::TraceMeta&) override {}
  void on_http_batch(std::span<const trace::HttpTransactionView> batch)
      override {
    for (const auto& view : batch) {
      checksum += view.timestamp_ms + view.host.size() + view.uri.size() +
                  view.user_agent.size() + view.content_type.size();
    }
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    for (const auto& flow : batch) checksum += flow.bytes;
  }
  std::uint64_t checksum = 0;
};

void expect_equal_http(const std::vector<trace::HttpTransaction>& a,
                       const std::vector<trace::HttpTransaction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp_ms, b[i].timestamp_ms);
    EXPECT_EQ(a[i].client_ip, b[i].client_ip);
    EXPECT_EQ(a[i].server_ip, b[i].server_ip);
    EXPECT_EQ(a[i].server_port, b[i].server_port);
    EXPECT_EQ(a[i].status_code, b[i].status_code);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].uri, b[i].uri);
    EXPECT_EQ(a[i].referer, b[i].referer);
    EXPECT_EQ(a[i].user_agent, b[i].user_agent);
    EXPECT_EQ(a[i].content_type, b[i].content_type);
    EXPECT_EQ(a[i].location, b[i].location);
    EXPECT_EQ(a[i].content_length, b[i].content_length);
    EXPECT_EQ(a[i].tcp_handshake_us, b[i].tcp_handshake_us);
    EXPECT_EQ(a[i].http_handshake_us, b[i].http_handshake_us);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

class MmapReaderTest : public ::testing::Test {
 protected:
  void SetUp() override { write_sample(path_, 500); }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ =
      "/tmp/adscope_test_mmap_" + std::to_string(::getpid()) + ".adst";
};

// ---------------------------------------------------------------------------
// Differential identity against the legacy reader.

TEST_F(MmapReaderTest, MatchesLegacyReaderRecordForRecord) {
  trace::MemoryTrace legacy;
  std::uint64_t legacy_records = 0;
  {
    trace::FileTraceReader reader(path_);
    legacy_records = reader.replay(legacy);
  }
  trace::MemoryTrace mapped;
  trace::MmapTraceReader reader(path_);
  const auto mapped_records = reader.replay(mapped);

  EXPECT_EQ(mapped_records, legacy_records);
  EXPECT_EQ(reader.meta().name, "mmap-test");
  EXPECT_EQ(mapped.meta().name, legacy.meta().name);
  EXPECT_EQ(mapped.meta().http_count_hint, legacy.meta().http_count_hint);
  expect_equal_http(mapped.http(), legacy.http());
  ASSERT_EQ(mapped.tls().size(), legacy.tls().size());
  for (std::size_t i = 0; i < mapped.tls().size(); ++i) {
    EXPECT_EQ(mapped.tls()[i].timestamp_ms, legacy.tls()[i].timestamp_ms);
    EXPECT_EQ(mapped.tls()[i].bytes, legacy.tls()[i].bytes);
  }
}

TEST_F(MmapReaderTest, BatchesPreserveGlobalRecordOrder) {
  SequenceSink legacy;
  {
    trace::FileTraceReader reader(path_);
    reader.replay(legacy);
  }
  // A tiny batch size forces many flushes, including on kind switches.
  trace::MmapTraceReader::Options options;
  options.batch_records = 3;
  trace::MmapTraceReader reader(path_, options);
  SequenceBatchSink batched;
  reader.replay_batches(batched);

  EXPECT_EQ(batched.sequence, legacy.sequence);
  EXPECT_GT(batched.http_batches, 1);
  EXPECT_GT(batched.tls_batches, 1);
}

TEST_F(MmapReaderTest, ReplayIsRestartable) {
  trace::MmapTraceReader reader(path_);
  NullBatchSink first;
  NullBatchSink second;
  reader.replay_batches(first);
  reader.replay_batches(second);
  EXPECT_EQ(first.checksum, second.checksum);
  EXPECT_GT(first.checksum, 0u);
}

// ---------------------------------------------------------------------------
// The headline guarantee: zero heap allocations per record once the
// reader is warm (dictionary interned, batch buffers at capacity).

TEST_F(MmapReaderTest, WarmReplayDecodesWithZeroAllocations) {
  trace::MmapTraceReader reader(path_);
  NullBatchSink sink;
  reader.replay_batches(sink);  // warm-up: interns the dictionary

  const auto before = test::allocation_count();
  reader.replay_batches(sink);
  const auto after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "warm mmap decode must not touch the heap";
  EXPECT_GT(sink.checksum, 0u);
}

// ---------------------------------------------------------------------------
// Corruption: structured failure, never UB.

TEST_F(MmapReaderTest, EveryTruncatedPrefixDecodesOrThrowsFormatError) {
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  std::uint64_t full_records = 0;
  {
    trace::FileTraceReader reader(path_);
    trace::MemoryTrace sink;
    full_records = reader.replay(sink);
  }

  const std::string prefix_path = "/tmp/adscope_test_mmap_prefix.adst";
  std::uint64_t throws = 0;
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    {
      std::ofstream out(prefix_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Both readers must agree: a prefix either decodes some records
    // (truncation exactly at a record boundary) or throws
    // TraceFormatError. Anything else — another exception type, a
    // crash — is a bug.
    for (const int kind : {0, 1}) {
      try {
        trace::MemoryTrace sink;
        std::uint64_t records = 0;
        if (kind == 0) {
          trace::FileTraceReader reader(prefix_path);
          records = reader.replay(sink);
        } else {
          trace::MmapTraceReader reader(prefix_path);
          records = reader.replay(sink);
        }
        EXPECT_LE(records, full_records);
      } catch (const trace::TraceFormatError&) {
        ++throws;  // structured failure: expected for most cuts
      }
    }
  }
  EXPECT_GT(throws, 0u);
  std::remove(prefix_path.c_str());
}

TEST(MmapReaderCorruption, DictionaryIdOutOfRangeThrows) {
  // Hand-crafted v2 stream (also exercises no-hint version compat):
  // header + one HTTP record whose host references dictionary id 7
  // when nothing has been defined.
  std::ostringstream out;
  out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
  trace::write_varint(out, trace::kTraceVersionNoHints);
  trace::write_string(out, "bad-dict");  // meta name
  trace::write_varint(out, 0);           // start
  trace::write_varint(out, 0);           // duration
  trace::write_varint(out, 1);           // subscribers
  trace::write_varint(out, 1);           // uplink
  trace::write_varint(out, 1);           // tag kHttp
  trace::write_varint(out, 42);          // timestamp
  trace::write_varint(out, 1);           // client_ip
  trace::write_varint(out, 2);           // server_ip
  trace::write_varint(out, 80);          // port
  trace::write_varint(out, 200);         // status
  trace::write_varint(out, 7);           // host dictionary id: OUT OF RANGE

  const std::string path = "/tmp/adscope_test_mmap_dict.adst";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    const auto bytes = out.str();
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  for (const int kind : {0, 1}) {
    try {
      trace::MemoryTrace sink;
      if (kind == 0) {
        trace::FileTraceReader reader(path);
        reader.replay(sink);
      } else {
        trace::MmapTraceReader reader(path);
        reader.replay(sink);
      }
      FAIL() << "out-of-range dictionary id must throw";
    } catch (const trace::TraceFormatError& error) {
      EXPECT_NE(std::string(error.what()).find("out of range"),
                std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

TEST(MmapReaderCorruption, VersionTwoFilesStillReadable) {
  std::ostringstream out;
  out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
  trace::write_varint(out, trace::kTraceVersionNoHints);
  trace::write_string(out, "v2-file");
  trace::write_varint(out, 100);  // start
  trace::write_varint(out, 200);  // duration
  trace::write_varint(out, 3);    // subscribers
  trace::write_varint(out, 1);    // uplink
  trace::write_varint(out, 2);    // tag kTls
  trace::write_varint(out, 5);    // timestamp
  trace::write_varint(out, 1);    // client_ip
  trace::write_varint(out, 2);    // server_ip
  trace::write_varint(out, 443);  // port
  trace::write_varint(out, 999);  // bytes
  trace::write_varint(out, 0);    // end marker

  const std::string path = "/tmp/adscope_test_mmap_v2.adst";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    const auto bytes = out.str();
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  trace::MmapTraceReader reader(path);
  EXPECT_EQ(reader.meta().name, "v2-file");
  EXPECT_EQ(reader.meta().http_count_hint, 0u);  // v2: unknown
  trace::MemoryTrace sink;
  EXPECT_EQ(reader.replay(sink), 1u);
  ASSERT_EQ(sink.tls().size(), 1u);
  EXPECT_EQ(sink.tls()[0].bytes, 999u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Raw replay: spans concatenate back into a stream the legacy reader
// accepts, byte-identically in record content.

TEST_F(MmapReaderTest, RawReplayReproducesAValidStream) {
  class Concatenate final : public trace::MmapTraceReader::RawSink {
   public:
    void on_raw(const trace::MmapTraceReader::RawRecord& record) override {
      bytes.append(record.bytes.data(), record.bytes.size());
    }
    std::string bytes;
  };

  trace::MmapTraceReader reader(path_);
  Concatenate raw;
  const auto records = reader.replay_raw(raw);

  const std::string copy_path = "/tmp/adscope_test_mmap_raw.adst";
  {
    std::ofstream out(copy_path, std::ios::binary | std::ios::trunc);
    const auto header = reader.header_bytes();
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(raw.bytes.data(),
              static_cast<std::streamsize>(raw.bytes.size()));
    out.put('\0');  // end marker (varint kEnd)
  }

  trace::MemoryTrace original;
  {
    trace::FileTraceReader legacy(path_);
    legacy.replay(original);
  }
  trace::MemoryTrace reproduced;
  {
    trace::FileTraceReader legacy(copy_path);
    EXPECT_EQ(legacy.replay(reproduced), records);
  }
  expect_equal_http(reproduced.http(), original.http());
  EXPECT_EQ(reproduced.tls().size(), original.tls().size());
  std::remove(copy_path.c_str());
}

// ---------------------------------------------------------------------------
// View lifetime: a view stored beyond its callback is dangling by
// contract (trace/view.h). After the reader is destroyed the mapping is
// gone, so touching the stolen view dies (SIGSEGV raw, ASan report
// under sanitizers) — the documented failure mode, asserted.

#if GTEST_HAS_DEATH_TEST
TEST_F(MmapReaderTest, ViewsStoredPastCallbackDieWithTheMapping) {
  class Thief final : public trace::TraceBatchSink {
   public:
    void on_meta(const trace::TraceMeta&) override {}
    void on_http_batch(std::span<const trace::HttpTransactionView> batch)
        override {
      if (!batch.empty()) stolen = batch.front().uri;  // contract violation
    }
    void on_tls_batch(std::span<const trace::TlsFlowView>) override {}
    std::string_view stolen;
  };

  Thief thief;
  {
    trace::MmapTraceReader reader(path_);
    reader.replay_batches(thief);
  }  // reader destroyed: mapping unmapped, `stolen` dangles
  EXPECT_DEATH(
      {
        volatile char c = thief.stolen.empty() ? '\0' : thief.stolen[0];
        (void)c;
      },
      "");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------------------
// StreamDecoder's batch surface agrees with its per-record surface.

TEST(StreamDecoderBatch, MatchesPerRecordDeliveryAcrossChunks) {
  std::ostringstream encoded;
  {
    trace::TraceEncoder encoder(encoded);
    trace::TraceMeta meta;
    meta.name = "stream-batch";
    encoder.on_meta(meta);
    for (std::uint64_t t = 0; t < 100; ++t) {
      if (t % 4 == 2) {
        encoder.on_tls(make_flow(t));
      } else {
        encoder.on_http(make_txn(t));
      }
    }
    encoder.finish();
  }
  const auto bytes = encoded.str();

  trace::MemoryTrace per_record;
  trace::StreamDecoder record_decoder(per_record);

  class Collect final : public trace::TraceBatchSink {
   public:
    void on_meta(const trace::TraceMeta& meta) override { memory.on_meta(meta); }
    void on_http_batch(std::span<const trace::HttpTransactionView> batch)
        override {
      for (const auto& view : batch) {
        memory.on_http_owned(trace::materialize(view));
        sequence.emplace_back('H', view.timestamp_ms);
      }
    }
    void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
      for (const auto& flow : batch) {
        memory.on_tls(flow);
        sequence.emplace_back('T', flow.timestamp_ms);
      }
    }
    trace::MemoryTrace memory;
    std::vector<std::pair<char, std::uint64_t>> sequence;
  };
  Collect collected;
  trace::StreamDecoder batch_decoder(collected);

  // Feed both in awkward 7-byte chunks so records straddle feeds.
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    const auto chunk = std::string_view(bytes).substr(i, 7);
    record_decoder.feed(chunk);
    batch_decoder.feed(chunk);
  }
  EXPECT_TRUE(record_decoder.finished());
  EXPECT_TRUE(batch_decoder.finished());
  EXPECT_EQ(batch_decoder.records_decoded(), record_decoder.records_decoded());
  expect_equal_http(collected.memory.http(), per_record.http());
  ASSERT_EQ(collected.memory.tls().size(), per_record.tls().size());
  // Global order preserved across kinds, not just per kind.
  for (std::size_t i = 1; i < collected.sequence.size(); ++i) {
    EXPECT_LE(collected.sequence[i - 1].second, collected.sequence[i].second);
  }
}

// ---------------------------------------------------------------------------
// >2 GiB traces: 64-bit offsets end to end. The file is written with
// holes (payload bytes never touch the disk), so it costs little real
// storage but maps and decodes as 2.2 GiB of records. Gated behind
// ADSCOPE_BIG_TRACE=1 — the CI bench-smoke job runs it; local runs skip.

TEST(MmapReaderBigTrace, SparseTraceOver2GiBDecodes) {
  if (std::getenv("ADSCOPE_BIG_TRACE") == nullptr) {
    GTEST_SKIP() << "set ADSCOPE_BIG_TRACE=1 to run the >2 GiB case";
  }
  const std::string path = "/tmp/adscope_test_big_trace.adst";
  constexpr std::uint64_t kRecords = 2200;
  constexpr std::uint64_t kPayload = 1 << 20;  // 1 MiB per record
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
    trace::write_varint(out, trace::kTraceVersionNoHints);
    trace::write_string(out, "big");
    trace::write_varint(out, 0);  // start
    trace::write_varint(out, 0);  // duration
    trace::write_varint(out, 1);  // subscribers
    trace::write_varint(out, 1);  // uplink
    for (std::uint64_t t = 0; t < kRecords; ++t) {
      trace::write_varint(out, 1);    // tag kHttp
      trace::write_varint(out, t);    // timestamp
      trace::write_varint(out, 1);    // client_ip
      trace::write_varint(out, 2);    // server_ip
      trace::write_varint(out, 80);   // port
      trace::write_varint(out, 200);  // status
      trace::write_varint(out, 0);    // host: empty
      trace::write_string(out, "/big");  // uri
      trace::write_varint(out, 0);    // referer: empty string length
      trace::write_varint(out, 0);    // user_agent id
      trace::write_varint(out, 0);    // content_type id
      trace::write_varint(out, 0);    // location: empty
      trace::write_varint(out, kPayload);  // content_length
      trace::write_varint(out, 0);    // tcp handshake
      trace::write_varint(out, 0);    // http handshake
      trace::write_varint(out, kPayload);  // payload length...
      // ...then a hole instead of a megabyte of zeros: seek forward and
      // let the filesystem materialize zero pages.
      out.seekp(static_cast<std::streamoff>(kPayload) - 1,
                std::ios_base::cur);
      out.put('\0');
    }
    trace::write_varint(out, 0);  // end marker
  }

  trace::MmapTraceReader reader(path);
  ASSERT_GT(reader.file_size(), std::uint64_t{1} << 31)
      << "test file must exceed 2 GiB to prove 64-bit offsets";

  class Count final : public trace::TraceBatchSink {
   public:
    void on_meta(const trace::TraceMeta&) override {}
    void on_http_batch(std::span<const trace::HttpTransactionView> batch)
        override {
      for (const auto& view : batch) {
        ++records;
        payload_bytes += view.payload.size();
        last_timestamp = view.timestamp_ms;
      }
    }
    void on_tls_batch(std::span<const trace::TlsFlowView>) override {}
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t last_timestamp = 0;
  };
  Count count;
  EXPECT_EQ(reader.replay_batches(count), kRecords);
  EXPECT_EQ(count.records, kRecords);
  EXPECT_EQ(count.payload_bytes, kRecords * kPayload);
  EXPECT_EQ(count.last_timestamp, kRecords - 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adscope
