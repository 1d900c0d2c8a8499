// core: UserIndex aggregation and the §6.2 two-indicator inference.
#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/user_index.h"
#include "support/owned_object.h"

namespace adscope::core {
namespace {

// Hand-built ClassifiedObjects: no engine needed since Classification
// carries its own list kinds.
test::OwnedObject make_object(netdb::IpV4 ip, const std::string& ua,
                              adblock::Decision decision,
                              adblock::ListKind kind,
                              std::uint64_t bytes = 100) {
  test::OwnedObject object;
  object.object.client_ip = ip;
  object.object.user_agent = ua;
  object.object.content_length = bytes;
  object.object.timestamp_ms = 1000;
  object.verdict.decision = decision;
  object.verdict.list_kind = kind;
  object.verdict.list = 0;
  return object;
}

constexpr const char* kFirefox =
    "Mozilla/5.0 (Windows NT 6.1; rv:38.0) Gecko/20100101 Firefox/38.0";
constexpr const char* kChrome =
    "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/43.0.2357.81 Safari/537.36";

class InferenceTest : public ::testing::Test {
 protected:
  // Add `total` requests for user (ip, ua), `ads` of which are EasyList
  // hits.
  void add_user(netdb::IpV4 ip, const std::string& ua, int total, int ads) {
    for (int i = 0; i < total - ads; ++i) {
      index_.add(make_object(ip, ua, adblock::Decision::kNoMatch,
                             adblock::ListKind::kCustom));
    }
    for (int i = 0; i < ads; ++i) {
      index_.add(make_object(ip, ua, adblock::Decision::kBlocked,
                             adblock::ListKind::kEasyList));
    }
  }

  void mark_abp_household(netdb::IpV4 ip) {
    registry_.add_server(999);
    trace::TlsFlow flow;
    flow.client_ip = ip;
    flow.server_ip = 999;
    flow.server_port = 443;
    index_.add_tls(flow, registry_);
  }

  UserIndex index_;
  netdb::AbpServerRegistry registry_;
};

TEST_F(InferenceTest, UserAggregation) {
  add_user(1, kFirefox, 10, 2);
  add_user(1, kChrome, 5, 0);  // same household, second browser
  EXPECT_EQ(index_.users().size(), 2u);
  EXPECT_EQ(index_.household_count(), 1u);
  EXPECT_EQ(index_.total_requests(), 15u);
  EXPECT_EQ(index_.total_ad_requests(), 2u);
}

TEST_F(InferenceTest, EasyListRatioCountsOnlyEasyList) {
  index_.add(make_object(1, kFirefox, adblock::Decision::kBlocked,
                         adblock::ListKind::kEasyList));
  index_.add(make_object(1, kFirefox, adblock::Decision::kBlocked,
                         adblock::ListKind::kEasyPrivacy));
  index_.add(make_object(1, kFirefox, adblock::Decision::kWhitelisted,
                         adblock::ListKind::kAcceptableAds));
  index_.add(make_object(1, kFirefox, adblock::Decision::kNoMatch,
                         adblock::ListKind::kCustom));
  const auto& stats = index_.users().begin()->second;
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ads_easylist, 1u);
  EXPECT_EQ(stats.ads_easyprivacy, 1u);
  EXPECT_EQ(stats.ads_whitelisted, 1u);
  EXPECT_EQ(stats.ad_requests(), 3u);
  EXPECT_DOUBLE_EQ(stats.easylist_ratio(), 0.25);
}

TEST_F(InferenceTest, NonAcceptableWhitelistIsNotAnAd) {
  // An EasyList-internal exception match must not count as an ad.
  index_.add(make_object(1, kFirefox, adblock::Decision::kWhitelisted,
                         adblock::ListKind::kEasyList));
  EXPECT_EQ(index_.total_ad_requests(), 0u);
}

TEST_F(InferenceTest, TlsToNonAbpServerIgnored) {
  registry_.add_server(999);
  trace::TlsFlow flow;
  flow.client_ip = 1;
  flow.server_ip = 5;  // not an ABP server
  flow.server_port = 443;
  index_.add_tls(flow, registry_);
  EXPECT_EQ(index_.abp_household_count(), 0u);
  EXPECT_FALSE(index_.household_downloads_easylist(1));
}

TEST_F(InferenceTest, FourClasses) {
  InferenceOptions options;
  options.min_requests = 100;
  options.ratio_threshold = 0.05;

  add_user(1, kFirefox, 200, 40);   // high ratio, no download  -> A
  add_user(2, kFirefox, 200, 40);   // high ratio, download     -> B
  add_user(3, kFirefox, 200, 2);    // low ratio, download      -> C
  add_user(4, kFirefox, 200, 2);    // low ratio, no download   -> D
  add_user(5, kChrome, 50, 25);     // below activity cut: excluded
  mark_abp_household(2);
  mark_abp_household(3);

  const auto result = infer_adblock_usage(index_, options);
  ASSERT_EQ(result.active_browsers.size(), 4u);
  EXPECT_EQ(result.classes[0].instances, 1u);  // A
  EXPECT_EQ(result.classes[1].instances, 1u);  // B
  EXPECT_EQ(result.classes[2].instances, 1u);  // C
  EXPECT_EQ(result.classes[3].instances, 1u);  // D
  EXPECT_DOUBLE_EQ(result.abp_share(), 0.25);
  for (const auto& browser : result.active_browsers) {
    switch (browser.stats->ip) {
      case 1: EXPECT_EQ(browser.cls, IndicatorClass::kA); break;
      case 2: EXPECT_EQ(browser.cls, IndicatorClass::kB); break;
      case 3: EXPECT_EQ(browser.cls, IndicatorClass::kC); break;
      case 4: EXPECT_EQ(browser.cls, IndicatorClass::kD); break;
      default: FAIL();
    }
  }
}

TEST_F(InferenceTest, NonBrowsersExcluded) {
  add_user(1, "curl/7.38.0", 5000, 0);
  InferenceOptions options;
  options.min_requests = 100;
  const auto result = infer_adblock_usage(index_, options);
  EXPECT_TRUE(result.active_browsers.empty());
  EXPECT_EQ(result.browsers_total, 0u);
  EXPECT_EQ(result.pairs_total, 1u);
}

TEST_F(InferenceTest, EcdfPopulated) {
  add_user(1, kFirefox, 200, 20);
  add_user(2, kChrome, 200, 0);
  InferenceOptions options;
  options.min_requests = 100;
  const auto result = infer_adblock_usage(index_, options);
  EXPECT_EQ(result.family_ecdf.at(ua::BrowserFamily::kFirefox).size(), 1u);
  EXPECT_EQ(result.family_ecdf.at(ua::BrowserFamily::kChrome).size(), 1u);
}

TEST_F(InferenceTest, ConfigurationReportShares) {
  InferenceOptions options;
  options.min_requests = 10;
  // Type-C user with EasyPrivacy hits but no whitelisted requests.
  for (int i = 0; i < 50; ++i) {
    index_.add(make_object(3, kFirefox, adblock::Decision::kNoMatch,
                           adblock::ListKind::kCustom));
  }
  for (int i = 0; i < 20; ++i) {
    index_.add(make_object(3, kFirefox, adblock::Decision::kBlocked,
                           adblock::ListKind::kEasyPrivacy));
  }
  mark_abp_household(3);
  // Type-A user with whitelisted requests.
  add_user(1, kChrome, 100, 30);
  for (int i = 0; i < 10; ++i) {
    index_.add(make_object(1, kChrome, adblock::Decision::kWhitelisted,
                           adblock::ListKind::kAcceptableAds));
  }

  const auto inference = infer_adblock_usage(index_, options);
  const auto report = analyze_configurations(inference, 10);
  EXPECT_DOUBLE_EQ(report.c_hits_easyprivacy_share, 1.0);
  EXPECT_DOUBLE_EQ(report.abp_zero_aa_share, 1.0);
  EXPECT_DOUBLE_EQ(report.abp_zero_ep_share, 0.0);
  EXPECT_DOUBLE_EQ(report.non_abp_zero_aa_share, 0.0);
  EXPECT_DOUBLE_EQ(report.whitelisted_from_non_abp_users, 1.0);
}

TEST(IndicatorClassNames, Chars) {
  EXPECT_EQ(to_char(IndicatorClass::kA), 'A');
  EXPECT_EQ(to_char(IndicatorClass::kD), 'D');
}

}  // namespace
}  // namespace adscope::core
