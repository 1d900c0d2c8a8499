// pcap: export/import round trip and frame well-formedness.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pcap/pcap.h"

namespace adscope::pcap {
namespace {

trace::HttpTransaction sample_txn(std::uint64_t t_ms = 2000) {
  trace::HttpTransaction txn;
  txn.timestamp_ms = t_ms;
  txn.client_ip = 0x0AC80005;
  txn.server_ip = 0x0A010009;
  txn.server_port = 80;
  txn.host = "news.test";
  txn.uri = "/story.html?id=7";
  txn.referer = "http://portal.test/";
  txn.user_agent = "TestAgent/1.0";
  txn.content_type = "text/html";
  txn.content_length = 1234;
  txn.status_code = 200;
  txn.tcp_handshake_us = 15'000;
  txn.http_handshake_us = 120'000;
  return txn;
}

class PcapTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      "/tmp/adscope_test_" + std::to_string(::getpid()) + ".pcap";
};

TEST_F(PcapTest, GlobalHeaderIsClassicLittleEndian) {
  {
    PcapWriter writer(path_);
    writer.on_meta(trace::TraceMeta{});
  }
  std::ifstream in(path_, std::ios::binary);
  unsigned char header[24] = {};
  in.read(reinterpret_cast<char*>(header), 24);
  EXPECT_EQ(header[0], 0xD4);
  EXPECT_EQ(header[1], 0xC3);
  EXPECT_EQ(header[2], 0xB2);
  EXPECT_EQ(header[3], 0xA1);
  EXPECT_EQ(header[20], 1u);  // LINKTYPE_ETHERNET
}

TEST_F(PcapTest, HttpTransactionBecomesFourFrames) {
  PcapWriter writer(path_);
  trace::TraceMeta meta;
  meta.start_unix_s = 1'428'710'400;
  writer.on_meta(meta);
  writer.on_http(sample_txn());
  EXPECT_EQ(writer.packets_written(), 4u);
  writer.on_tls(trace::TlsFlow{});
  EXPECT_EQ(writer.packets_written(), 6u);
}

TEST_F(PcapTest, RoundTripRestoresHeadersAndTimings) {
  const auto original = sample_txn();
  {
    PcapWriter writer(path_);
    trace::TraceMeta meta;
    meta.start_unix_s = 1'428'710'400;
    writer.on_meta(meta);
    writer.on_http(original);
  }
  PcapHttpReader reader(path_);
  trace::MemoryTrace memory;
  const auto transactions = reader.replay(memory);
  ASSERT_EQ(transactions, 1u);
  ASSERT_EQ(memory.http().size(), 1u);
  const auto& txn = memory.http()[0];
  EXPECT_EQ(txn.host, original.host);
  EXPECT_EQ(txn.uri, original.uri);
  EXPECT_EQ(txn.referer, original.referer);
  EXPECT_EQ(txn.user_agent, original.user_agent);
  EXPECT_EQ(txn.status_code, original.status_code);
  EXPECT_EQ(txn.content_type, original.content_type);
  EXPECT_EQ(txn.content_length, original.content_length);
  EXPECT_EQ(txn.client_ip, original.client_ip);
  EXPECT_EQ(txn.server_ip, original.server_ip);
  // Hand-shake timings survive via the SYN exchange layout.
  EXPECT_EQ(txn.tcp_handshake_us, original.tcp_handshake_us);
  EXPECT_EQ(txn.http_handshake_us, original.http_handshake_us);
  EXPECT_EQ(reader.packets_parsed(), 4u);
  EXPECT_EQ(reader.packets_skipped(), 0u);
}

TEST_F(PcapTest, ManyTransactionsRoundTrip) {
  constexpr int kCount = 200;
  {
    PcapWriter writer(path_);
    trace::TraceMeta meta;
    meta.start_unix_s = 1'428'710'400;
    writer.on_meta(meta);
    for (int i = 0; i < kCount; ++i) {
      auto txn = sample_txn(2000 + static_cast<std::uint64_t>(i) * 250);
      txn.uri = "/obj" + std::to_string(i);
      txn.status_code = i % 7 == 0 ? 302 : 200;
      if (txn.status_code == 302) txn.location = "http://next.test/x";
      writer.on_http(txn);
    }
  }
  PcapHttpReader reader(path_);
  trace::MemoryTrace memory;
  EXPECT_EQ(reader.replay(memory), static_cast<std::uint64_t>(kCount));
  int redirects = 0;
  for (const auto& txn : memory.http()) {
    redirects += txn.status_code == 302;
    EXPECT_FALSE(txn.host.empty());
  }
  EXPECT_GT(redirects, 0);
  // Redirect Location restored.
  bool found_location = false;
  for (const auto& txn : memory.http()) {
    if (!txn.location.empty()) {
      EXPECT_EQ(txn.location, "http://next.test/x");
      found_location = true;
    }
  }
  EXPECT_TRUE(found_location);
}

TEST_F(PcapTest, TlsFlowsImportedFromSynExchange) {
  {
    PcapWriter writer(path_);
    writer.on_meta(trace::TraceMeta{});
    trace::TlsFlow flow;
    flow.timestamp_ms = 500;
    flow.client_ip = 1;
    flow.server_ip = 2;
    flow.server_port = 443;
    writer.on_tls(flow);
  }
  PcapHttpReader reader(path_);
  trace::MemoryTrace memory;
  reader.replay(memory);
  ASSERT_EQ(memory.tls().size(), 1u);
  EXPECT_EQ(memory.tls()[0].server_port, 443);
}

TEST_F(PcapTest, ForeignMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOT A PCAP FILE AT ALL......";
  }
  EXPECT_THROW(PcapHttpReader reader(path_), PcapFormatError);
}

TEST_F(PcapTest, SurvivesTruncation) {
  {
    PcapWriter writer(path_);
    writer.on_meta(trace::TraceMeta{});
    for (std::uint64_t i = 0; i < 10; ++i) {
      writer.on_http(sample_txn(1000 + i * 100));
    }
  }
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  for (std::size_t cut = 30; cut < bytes.size(); cut += 101) {
    const std::string cut_path = "/tmp/adscope_pcap_cut.pcap";
    {
      std::ofstream out(cut_path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    try {
      PcapHttpReader reader(cut_path);
      trace::MemoryTrace memory;
      reader.replay(memory);  // partial replay or format error, no crash
    } catch (const PcapFormatError&) {
    }
    std::remove(cut_path.c_str());
  }
}

TEST_F(PcapTest, ChecksumsAreValid) {
  // Recompute the IPv4 header checksum of the first frame: a correct
  // implementation yields zero when summed over the full header.
  {
    PcapWriter writer(path_);
    writer.on_meta(trace::TraceMeta{});
    writer.on_http(sample_txn());
  }
  std::ifstream in(path_, std::ios::binary);
  in.seekg(24 + 16 + 14);  // global header + record header + ethernet
  unsigned char ip[20] = {};
  in.read(reinterpret_cast<char*>(ip), 20);
  std::uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) sum += (ip[i] << 8) | ip[i + 1];
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  EXPECT_EQ(sum, 0xFFFFu);
}

}  // namespace
}  // namespace adscope::pcap
