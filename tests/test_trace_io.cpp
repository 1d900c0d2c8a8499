// trace: headers collection, binary format round trips, analyzer
// extraction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "analyzer/http_extractor.h"
#include "http/headers.h"
#include "trace/io.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace adscope {
namespace {

TEST(Headers, SetGetCaseInsensitive) {
  http::Headers headers;
  headers.set("Content-Type", "text/html");
  EXPECT_EQ(headers.get_or_empty("content-type"), "text/html");
  headers.set("CONTENT-TYPE", "image/gif");  // overwrite, not append
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.get_or_empty("Content-Type"), "image/gif");
  EXPECT_FALSE(headers.get("missing").has_value());
  EXPECT_TRUE(headers.contains("content-TYPE"));
}

TEST(Headers, AppendKeepsDuplicates) {
  http::Headers headers;
  headers.append("Set-Cookie", "a=1");
  headers.append("Set-Cookie", "b=2");
  EXPECT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers.get_or_empty("set-cookie"), "a=1");  // first wins
}

TEST(Varint, RoundTripBoundaries) {
  std::stringstream stream;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 21,
                                  UINT64_MAX};
  for (const auto v : values) trace::write_varint(stream, v);
  for (const auto v : values) {
    std::uint64_t out = 0;
    ASSERT_TRUE(trace::read_varint(stream, out));
    EXPECT_EQ(out, v);
  }
  std::uint64_t eof_value = 0;
  EXPECT_FALSE(trace::read_varint(stream, eof_value));  // clean EOF
}

TEST(Varint, TruncationThrows) {
  std::stringstream stream;
  stream.put(static_cast<char>(0x80));  // continuation with no next byte
  std::uint64_t out = 0;
  EXPECT_THROW(trace::read_varint(stream, out), trace::TraceFormatError);
}

TEST(TraceString, RoundTrip) {
  std::stringstream stream;
  trace::write_string(stream, "hello");
  trace::write_string(stream, "");
  EXPECT_EQ(trace::read_string(stream), "hello");
  EXPECT_EQ(trace::read_string(stream), "");
}

class TraceFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  trace::HttpTransaction make_txn(std::uint64_t t, const char* host) {
    trace::HttpTransaction txn;
    txn.timestamp_ms = t;
    txn.client_ip = 0x0AC80001;
    txn.server_ip = 0x0A010001;
    txn.host = host;
    txn.uri = "/path?q=" + std::to_string(t);
    txn.referer = t % 2 == 0 ? "" : "http://page.test/";
    txn.user_agent = "UA";
    txn.content_type = "image/gif";
    txn.location = t % 3 == 0 ? "http://next.test/x" : "";
    txn.content_length = 43 + t;
    txn.status_code = t % 3 == 0 ? 302 : 200;
    txn.tcp_handshake_us = 1000;
    txn.http_handshake_us = 2000;
    return txn;
  }

  std::string path_ =
      "/tmp/adscope_test_trace_" + std::to_string(::getpid()) + ".adst";
};

TEST_F(TraceFileTest, RoundTripPreservesEverything) {
  trace::MemoryTrace original;
  trace::TraceMeta meta;
  meta.name = "unit";
  meta.start_unix_s = 1'428'710'400;
  meta.duration_s = 3600;
  meta.subscribers = 7;
  meta.uplink_gbps = 3;
  original.on_meta(meta);
  for (std::uint64_t i = 0; i < 200; ++i) {
    original.on_http(make_txn(i, i % 5 == 0 ? "a.test" : "b.test"));
  }
  trace::TlsFlow flow;
  flow.timestamp_ms = 9;
  flow.client_ip = 1;
  flow.server_ip = 2;
  flow.bytes = 4096;
  original.on_tls(flow);

  {
    trace::FileTraceWriter writer(path_);
    original.replay(writer);
  }
  trace::FileTraceReader reader(path_);
  EXPECT_EQ(reader.meta().name, "unit");
  EXPECT_EQ(reader.meta().subscribers, 7u);
  trace::MemoryTrace copy;
  const auto records = reader.replay(copy);
  EXPECT_EQ(records, 201u);
  ASSERT_EQ(copy.http().size(), original.http().size());
  for (std::size_t i = 0; i < copy.http().size(); ++i) {
    const auto& a = original.http()[i];
    const auto& b = copy.http()[i];
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(a.uri, b.uri);
    EXPECT_EQ(a.referer, b.referer);
    EXPECT_EQ(a.content_type, b.content_type);
    EXPECT_EQ(a.location, b.location);
    EXPECT_EQ(a.content_length, b.content_length);
    EXPECT_EQ(a.status_code, b.status_code);
    EXPECT_EQ(a.timestamp_ms, b.timestamp_ms);
  }
  ASSERT_EQ(copy.tls().size(), 1u);
  EXPECT_EQ(copy.tls()[0].bytes, 4096u);
}

TEST_F(TraceFileTest, DictionaryCompressesRepeatedStrings) {
  {
    trace::FileTraceWriter writer(path_);
    trace::TraceMeta meta;
    meta.name = "dict";
    writer.on_meta(meta);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      writer.on_http(make_txn(i, "the-same-long-host-name.example.com"));
    }
  }
  const auto size = std::filesystem::file_size(path_);
  // Naive encoding would store the 35-byte host 1000x; the dictionary
  // stores it once. ~60 bytes/record is ample headroom.
  EXPECT_LT(size, 1000u * 70u);
  trace::FileTraceReader reader(path_);
  trace::MemoryTrace copy;
  reader.replay(copy);
  EXPECT_EQ(copy.http().back().host, "the-same-long-host-name.example.com");
}

TEST_F(TraceFileTest, WriterBackPatchesRecordCountHints) {
  {
    trace::FileTraceWriter writer(path_);
    trace::TraceMeta meta;
    meta.name = "hints";
    writer.on_meta(meta);  // hints unknown (0) at this point
    for (std::uint64_t i = 0; i < 37; ++i) writer.on_http(make_txn(i, "h.test"));
    trace::TlsFlow flow;
    flow.timestamp_ms = 1;
    writer.on_tls(flow);
    writer.on_tls(flow);
    writer.close();  // patches the real counts into the header
  }
  trace::FileTraceReader reader(path_);
  EXPECT_EQ(reader.meta().http_count_hint, 37u);
  EXPECT_EQ(reader.meta().tls_count_hint, 2u);

  // MemoryTrace turns the hints into a reservation on on_meta.
  trace::MemoryTrace copy;
  reader.replay(copy);
  EXPECT_EQ(copy.http().size(), 37u);
  EXPECT_GE(copy.http().capacity(), 37u);
  EXPECT_GE(copy.tls().capacity(), 2u);
}

TEST_F(TraceFileTest, StreamedEncoderLeavesHintsUnknown) {
  // A socket writer cannot seek back; its header keeps the 0 = unknown
  // hints and readers must accept that.
  std::ostringstream encoded;
  {
    trace::TraceEncoder encoder(encoded);
    trace::TraceMeta meta;
    meta.name = "no-patch";
    encoder.on_meta(meta);
    encoder.on_http(make_txn(1, "s.test"));
    encoder.finish();
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    const auto bytes = encoded.str();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  trace::FileTraceReader reader(path_);
  EXPECT_EQ(reader.meta().http_count_hint, 0u);
  EXPECT_EQ(reader.meta().tls_count_hint, 0u);
  trace::MemoryTrace copy;
  EXPECT_EQ(reader.replay(copy), 1u);
}

TEST_F(TraceFileTest, TruncationMidRecordThrowsFormatError) {
  {
    trace::FileTraceWriter writer(path_);
    trace::TraceMeta meta;
    meta.name = "cut";
    writer.on_meta(meta);
    for (std::uint64_t i = 0; i < 5; ++i) writer.on_http(make_txn(i, "c.test"));
    writer.close();
  }
  const auto size = std::filesystem::file_size(path_);
  // Chop inside the last record (well past its tag byte): the reader
  // must surface structured truncation, not stale fields or UB.
  std::filesystem::resize_file(path_, size - 10);
  trace::FileTraceReader reader(path_);
  trace::MemoryTrace sink;
  EXPECT_THROW(reader.replay(sink), trace::TraceFormatError);
}

TEST(MemoryTraceSink, MoveOverloadStealsTheStrings) {
  trace::MemoryTrace memory;
  trace::HttpTransaction txn;
  txn.uri = std::string(128, 'x');  // heap-allocated (beyond SSO)
  const char* buffer = txn.uri.data();
  memory.on_http_owned(std::move(txn));
  ASSERT_EQ(memory.http().size(), 1u);
  EXPECT_EQ(memory.http()[0].uri.data(), buffer)
      << "on_http_owned must move, not copy";
}

TEST_F(TraceFileTest, BadMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOPE garbage";
  }
  EXPECT_THROW(trace::FileTraceReader reader(path_), trace::TraceFormatError);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(trace::FileTraceReader reader("/nonexistent/file.adst"),
               std::runtime_error);
}

TEST(Extractor, BuildsAbsoluteUrls) {
  analyzer::HttpExtractor extractor;
  std::vector<analyzer::WebObject> objects;
  extractor.set_object_callback(
      [&](const analyzer::WebObject& o) { objects.push_back(o); });

  trace::HttpTransaction txn;
  txn.host = "WWW.Site.Test";
  txn.uri = "/a/b?x=1";
  txn.content_type = "Text/HTML; charset=utf-8";
  txn.status_code = 301;
  txn.location = "/moved/here";
  extractor.on_http(txn);

  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].url.spec(), "http://www.site.test/a/b?x=1");
  EXPECT_EQ(objects[0].content_type, "text/html");
  EXPECT_TRUE(objects[0].is_redirect());
  EXPECT_EQ(objects[0].location.spec(), "http://www.site.test/moved/here");
}

TEST(Extractor, DropsMalformedHost) {
  analyzer::HttpExtractor extractor;
  int calls = 0;
  extractor.set_object_callback([&](const analyzer::WebObject&) { ++calls; });
  trace::HttpTransaction txn;
  txn.host = "";
  txn.uri = "/x";
  extractor.on_http(txn);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(extractor.malformed(), 1u);
  EXPECT_EQ(extractor.transactions(), 1u);
}

TEST(Extractor, ForwardsTls) {
  analyzer::HttpExtractor extractor;
  int tls_calls = 0;
  extractor.set_tls_callback([&](const trace::TlsFlow&) { ++tls_calls; });
  extractor.on_tls(trace::TlsFlow{});
  EXPECT_EQ(tls_calls, 1);
}

}  // namespace
}  // namespace adscope
