// core: TrafficStats, WhitelistAnalysis, InfraAnalysis, RtbAnalysis over
// hand-built classified objects.
#include <gtest/gtest.h>

#include "core/infra_analysis.h"
#include "core/rtb_analysis.h"
#include "core/traffic_stats.h"
#include "core/whitelist_analysis.h"
#include "support/owned_object.h"

namespace adscope::core {
namespace {

test::OwnedObject make_object(adblock::Decision decision,
                              adblock::ListKind kind, std::uint64_t bytes,
                              const std::string& mime,
                              std::uint64_t t_s = 0,
                              netdb::IpV4 server = 10) {
  test::OwnedObject object;
  object.object.url = *http::Url::parse("http://host.test/object");
  object.object.content_type = mime;
  object.object.content_length = bytes;
  object.object.timestamp_ms = t_s * 1000;
  object.object.server_ip = server;
  object.verdict.decision = decision;
  object.verdict.list_kind = kind;
  return object;
}

TEST(TrafficStatsTest, TotalsAndListAttribution) {
  TrafficStats stats(7200, 3600);
  stats.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 1000, "text/html"));
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 43, "image/gif"));
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyListDerivative, 43,
                        "image/gif"));
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyPrivacy, 43, "image/gif"));
  stats.add(make_object(adblock::Decision::kWhitelisted,
                        adblock::ListKind::kAcceptableAds, 500, "image/jpeg"));

  EXPECT_EQ(stats.requests(), 5u);
  EXPECT_EQ(stats.ad_requests(), 4u);
  EXPECT_EQ(stats.easylist_requests(), 2u);  // EL + derivative
  EXPECT_EQ(stats.easyprivacy_requests(), 1u);
  EXPECT_EQ(stats.whitelisted_requests(), 1u);
  EXPECT_EQ(stats.ad_bytes(), 43u * 3 + 500u);
  EXPECT_EQ(stats.bytes(), 1000u + 43u * 3 + 500u);
}

TEST(TrafficStatsTest, TimeSeriesBinning) {
  TrafficStats stats(7200, 3600);
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 10, "image/gif", 100));
  stats.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 10, "text/html", 4000));
  const auto& series = stats.series();
  EXPECT_DOUBLE_EQ(series.value(TrafficStats::kEasyListReqs, 0), 1.0);
  EXPECT_DOUBLE_EQ(series.value(TrafficStats::kNonAdReqs, 1), 1.0);
  EXPECT_DOUBLE_EQ(series.value(TrafficStats::kTotalReqs, 0), 1.0);
}

TEST(TrafficStatsTest, ContentTableSortedByAdRequests) {
  TrafficStats stats(3600);
  for (int i = 0; i < 3; ++i) {
    stats.add(make_object(adblock::Decision::kBlocked,
                          adblock::ListKind::kEasyList, 43, "image/gif"));
  }
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 10000, "text/html"));
  stats.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 10, ""));
  const auto rows = stats.content_table();
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "image/gif");
  EXPECT_EQ(rows[0].second.ad_requests, 3u);
  // Absent Content-Type shows as "-".
  bool has_dash = false;
  for (const auto& [mime, row] : rows) has_dash |= mime == "-";
  EXPECT_TRUE(has_dash);
}

TEST(TrafficStatsTest, SizeHistogramsByClass) {
  TrafficStats stats(3600);
  stats.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 43, "image/gif"));
  stats.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 2'000'000, "video/mp4"));
  EXPECT_EQ(stats.ad_sizes(http::ContentClass::kImage).total(), 1.0);
  EXPECT_EQ(stats.non_ad_sizes(http::ContentClass::kVideo).total(), 1.0);
  EXPECT_EQ(stats.ad_sizes(http::ContentClass::kVideo).total(), 0.0);
}

test::OwnedObject whitelist_object(bool would_block,
                                   adblock::ListKind blocked_kind,
                                   const std::string& page_host,
                                   const std::string& host) {
  test::OwnedObject object;
  object.object.url = *http::Url::parse("http://" + host + "/x.gif");
  object.page_host = page_host;
  object.page_url = page_host.empty() ? "" : "http://" + page_host + "/";
  object.verdict.decision = adblock::Decision::kWhitelisted;
  object.verdict.list_kind = adblock::ListKind::kAcceptableAds;
  if (would_block) {
    static const auto filter = *adblock::Filter::parse("/x.gif");
    object.verdict.blocked_by = &filter;
    object.verdict.blocked_by_kind = blocked_kind;
    object.verdict.blocked_by_list = 0;
  }
  return object;
}

test::OwnedObject blocked_object(adblock::ListKind kind,
                                 const std::string& page_host,
                                 const std::string& host) {
  test::OwnedObject object;
  object.object.url = *http::Url::parse("http://" + host + "/y.gif");
  object.page_host = page_host;
  object.verdict.decision = adblock::Decision::kBlocked;
  object.verdict.list_kind = kind;
  return object;
}

TEST(WhitelistAnalysisTest, AccuracyCounters) {
  WhitelistAnalysis analysis;
  analysis.add(whitelist_object(true, adblock::ListKind::kEasyList,
                                "news.test", "adnet.test"));
  analysis.add(whitelist_object(true, adblock::ListKind::kEasyPrivacy,
                                "news.test", "tracker.test"));
  analysis.add(whitelist_object(false, adblock::ListKind::kCustom,
                                "news.test", "gstatic.test"));
  analysis.add(blocked_object(adblock::ListKind::kEasyList, "news.test",
                              "adnet.test"));

  EXPECT_EQ(analysis.ad_requests(), 4u);
  EXPECT_EQ(analysis.whitelisted(), 3u);
  EXPECT_EQ(analysis.whitelisted_would_block(), 2u);
  EXPECT_EQ(analysis.whitelisted_would_block_ep(), 1u);
}

TEST(WhitelistAnalysisTest, Beneficiaries) {
  WhitelistAnalysis analysis;
  for (int i = 0; i < 10; ++i) {
    analysis.add(blocked_object(adblock::ListKind::kEasyList, "news.test",
                                "adnet.test"));
  }
  for (int i = 0; i < 5; ++i) {
    analysis.add(whitelist_object(true, adblock::ListKind::kEasyList,
                                  "news.test", "adnet.test"));
  }
  const auto publishers = analysis.publishers(5);
  ASSERT_EQ(publishers.size(), 1u);
  EXPECT_EQ(publishers[0].fqdn, "news.test");
  EXPECT_EQ(publishers[0].blacklisted, 10u);
  EXPECT_EQ(publishers[0].whitelisted, 5u);
  EXPECT_NEAR(publishers[0].whitelisted_share(), 5.0 / 15.0, 1e-9);
  EXPECT_TRUE(analysis.publishers(50).empty());  // threshold respected
  const auto tech = analysis.ad_tech(5);
  ASSERT_EQ(tech.size(), 1u);
  EXPECT_EQ(tech[0].fqdn, "adnet.test");
}

TEST(InfraAnalysisTest, ServerAccounting) {
  InfraAnalysis infra;
  // Server 10: mixed (2 ads of 4 objects). Server 20: ads only.
  infra.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 10, "image/gif", 0, 10));
  infra.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyPrivacy, 10, "image/gif", 0,
                        10));
  infra.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 10, "text/html", 0, 10));
  infra.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 10, "text/html", 0, 10));
  for (int i = 0; i < 5; ++i) {
    infra.add(make_object(adblock::Decision::kBlocked,
                          adblock::ListKind::kEasyList, 10, "image/gif", 0,
                          20));
  }
  EXPECT_EQ(infra.server_count(), 2u);
  EXPECT_EQ(infra.ad_serving_server_count(), 2u);
  EXPECT_EQ(infra.easylist_server_count(), 2u);
  EXPECT_EQ(infra.easyprivacy_server_count(), 1u);
  EXPECT_EQ(infra.both_lists_server_count(), 1u);
  const auto dedicated = infra.dedicated_ad_servers(0.9);
  EXPECT_EQ(dedicated.servers, 1u);
  EXPECT_EQ(dedicated.ads, 5u);
  EXPECT_NEAR(dedicated.ad_share_of_trace, 5.0 / 7.0, 1e-9);
  const auto busiest = infra.busiest_ad_server();
  EXPECT_EQ(busiest.first, 20u);
  EXPECT_EQ(busiest.second, 5u);
}

TEST(InfraAnalysisTest, AsRanking) {
  InfraAnalysis infra;
  netdb::AsnDatabase db;
  db.add_route(*netdb::parse_prefix("0.0.0.10/32"), 100);
  db.add_route(*netdb::parse_prefix("0.0.0.20/32"), 200);
  db.set_as_info(100, "MixedAS");
  db.set_as_info(200, "AdAS");
  infra.add(make_object(adblock::Decision::kBlocked,
                        adblock::ListKind::kEasyList, 10, "image/gif", 0, 10));
  infra.add(make_object(adblock::Decision::kNoMatch,
                        adblock::ListKind::kCustom, 10, "text/html", 0, 10));
  for (int i = 0; i < 3; ++i) {
    infra.add(make_object(adblock::Decision::kBlocked,
                          adblock::ListKind::kEasyList, 10, "image/gif", 0,
                          20));
  }
  const auto rows = infra.as_ranking(db, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "AdAS");
  EXPECT_EQ(rows[0].ad_requests, 3u);
  EXPECT_EQ(rows[1].name, "MixedAS");
  EXPECT_EQ(rows[1].total_requests, 2u);
}

TEST(RtbAnalysisTest, DeltaSeparation) {
  RtbAnalysis rtb;
  auto with_timing = [](bool ad, std::uint32_t tcp_us, std::uint32_t http_us) {
    auto object = make_object(
        ad ? adblock::Decision::kBlocked : adblock::Decision::kNoMatch,
        ad ? adblock::ListKind::kEasyList : adblock::ListKind::kCustom, 10,
        "image/gif");
    object.object.tcp_handshake_us = tcp_us;
    object.object.http_handshake_us = http_us;
    return object;
  };
  // Ads: 120 ms auction delay; non-ads: 1 ms.
  for (int i = 0; i < 10; ++i) {
    rtb.add(with_timing(true, 20'000, 140'000));
    rtb.add(with_timing(false, 20'000, 21'000));
  }
  EXPECT_DOUBLE_EQ(rtb.ad_share_in_rtb_regime(), 1.0);
  EXPECT_DOUBLE_EQ(rtb.non_ad_share_in_rtb_regime(), 0.0);
  const auto& hist = rtb.ad_delta_ms();
  const auto mode = hist.bin_center(hist.mode_bin());
  EXPECT_GT(mode, 60.0);
  EXPECT_LT(mode, 250.0);
  const auto hosts = rtb.rtb_hosts(5);
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0].domain, "host.test");
  EXPECT_DOUBLE_EQ(hosts[0].share, 1.0);
}

TEST(RtbAnalysisTest, MissingResponseSkipped) {
  RtbAnalysis rtb;
  auto object = make_object(adblock::Decision::kNoMatch,
                            adblock::ListKind::kCustom, 10, "text/html");
  object.object.http_handshake_us = 0;
  rtb.add(object);
  EXPECT_EQ(rtb.non_ad_delta_ms().total(), 0.0);
}

}  // namespace
}  // namespace adscope::core
