// ua: User-Agent classification (the §6.1 annotation step).
#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "sim/ua_factory.h"
#include "ua/user_agent.h"
#include "util/rng.h"

namespace adscope::ua {
namespace {

struct UaCase {
  const char* ua;
  BrowserFamily family;
  DeviceClass device;
};

// Names each ctest case; see PrintTo(MatchCase) in test_filter.cpp. The
// UA is cut to its first 40 bytes to keep the ctest name short; that
// prefix plus the expected verdict is unique within the table below.
void PrintTo(const UaCase& c, std::ostream* os) {
  *os << to_string(c.family) << '/' << to_string(c.device) << " for '"
      << std::string_view(c.ua).substr(0, 40) << '\'';
}

class UaSweep : public ::testing::TestWithParam<UaCase> {};

TEST_P(UaSweep, Classifies) {
  const auto info = parse_user_agent(GetParam().ua);
  EXPECT_EQ(info.family, GetParam().family) << GetParam().ua;
  EXPECT_EQ(info.device, GetParam().device) << GetParam().ua;
}

INSTANTIATE_TEST_SUITE_P(
    Real2015Strings, UaSweep,
    ::testing::Values(
        UaCase{"Mozilla/5.0 (Windows NT 6.1; WOW64; rv:38.0) Gecko/20100101 "
               "Firefox/38.0",
               BrowserFamily::kFirefox, DeviceClass::kDesktop},
        UaCase{"Mozilla/5.0 (Windows NT 6.3) AppleWebKit/537.36 (KHTML, like "
               "Gecko) Chrome/43.0.2357.81 Safari/537.36",
               BrowserFamily::kChrome, DeviceClass::kDesktop},
        UaCase{"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_3) "
               "AppleWebKit/600.5.17 (KHTML, like Gecko) Version/8.0.5 "
               "Safari/600.5.17",
               BrowserFamily::kSafari, DeviceClass::kDesktop},
        UaCase{"Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko",
               BrowserFamily::kInternetExplorer, DeviceClass::kDesktop},
        UaCase{"Mozilla/4.0 (compatible; MSIE 9.0; Windows NT 6.1; "
               "Trident/5.0)",
               BrowserFamily::kInternetExplorer, DeviceClass::kDesktop},
        UaCase{"Mozilla/5.0 (iPhone; CPU iPhone OS 8_1 like Mac OS X) "
               "AppleWebKit/600.1.4 (KHTML, like Gecko) Version/8.0 "
               "Mobile/12B411 Safari/600.1.4",
               BrowserFamily::kSafari, DeviceClass::kMobile},
        UaCase{"Mozilla/5.0 (Linux; Android 5.0; SM-G900F Build/LRX21T) "
               "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/40.0.2214.89 "
               "Mobile Safari/537.36",
               BrowserFamily::kChrome, DeviceClass::kMobile},
        UaCase{"Mozilla/5.0 (PlayStation 4 2.51) AppleWebKit/537.73",
               BrowserFamily::kNone, DeviceClass::kConsole},
        UaCase{"Mozilla/5.0 (SMART-TV; Linux; Tizen 2.3) AppleWebKit/538.1 TV "
               "Safari/538.1",
               BrowserFamily::kNone, DeviceClass::kSmartTv},
        UaCase{"Dalvik/2.1.0 (Linux; U; Android 5.0.1)", BrowserFamily::kNone,
               DeviceClass::kApp},
        UaCase{"Microsoft-CryptoAPI/6.1", BrowserFamily::kNone,
               DeviceClass::kRobot},
        UaCase{"curl/7.38.0", BrowserFamily::kNone, DeviceClass::kRobot},
        UaCase{"Googlebot/2.1 (+http://www.google.com/bot.html)",
               BrowserFamily::kNone, DeviceClass::kRobot},
        UaCase{"", BrowserFamily::kNone, DeviceClass::kUnknown},
        UaCase{"TotallyUnknownAgent/1.0", BrowserFamily::kNone,
               DeviceClass::kUnknown}));

TEST(Ua, VersionExtraction) {
  const auto ff = parse_user_agent(
      "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0");
  EXPECT_EQ(ff.major_version, 38);
  const auto chrome = parse_user_agent(
      "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 (KHTML, like Gecko) "
      "Chrome/43.0.2357.81 Safari/537.36");
  EXPECT_EQ(chrome.major_version, 43);
}

TEST(Ua, IsBrowserPredicate) {
  EXPECT_TRUE(parse_user_agent("Mozilla/5.0 (Windows NT 6.1; rv:38.0) "
                               "Gecko/20100101 Firefox/38.0")
                  .is_browser());
  EXPECT_FALSE(parse_user_agent("curl/7.38.0").is_browser());
  EXPECT_FALSE(parse_user_agent("").is_browser());
}

TEST(Ua, OperaAndEdgeAreOtherNotChrome) {
  const auto opera = parse_user_agent(
      "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 (KHTML, like Gecko) "
      "Chrome/42.0.2311.90 Safari/537.36 OPR/29.0.1795.47");
  EXPECT_EQ(opera.family, BrowserFamily::kOther);
}

// Property: every factory-generated UA string classifies back to the
// family/device it was generated for.
TEST(UaFactory, RoundTripsThroughParser) {
  util::Rng rng(99);
  const BrowserFamily families[] = {
      BrowserFamily::kFirefox, BrowserFamily::kChrome, BrowserFamily::kSafari,
      BrowserFamily::kInternetExplorer};
  for (int i = 0; i < 200; ++i) {
    for (const auto family : families) {
      const auto ua_string = sim::make_desktop_ua(family, rng);
      const auto info = parse_user_agent(ua_string);
      EXPECT_EQ(info.family, family) << ua_string;
      EXPECT_EQ(info.device, DeviceClass::kDesktop) << ua_string;
    }
    const auto mobile = parse_user_agent(sim::make_mobile_ua(rng));
    EXPECT_EQ(mobile.device, DeviceClass::kMobile);
    EXPECT_TRUE(mobile.is_browser());
    EXPECT_FALSE(parse_user_agent(sim::make_console_ua(rng)).is_browser());
    EXPECT_FALSE(parse_user_agent(sim::make_smarttv_ua(rng)).is_browser());
    EXPECT_FALSE(parse_user_agent(sim::make_app_ua(rng)).is_browser());
  }
}

}  // namespace
}  // namespace adscope::ua
