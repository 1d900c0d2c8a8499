// Filter parsing and matching semantics (ABP grammar).
#include <gtest/gtest.h>

#include <ostream>

#include "adblock/engine.h"
#include "adblock/filter.h"

namespace adscope::adblock {
namespace {

using http::RequestType;

Request req(std::string url, std::string page = "",
            RequestType type = RequestType::kImage) {
  return make_request(url, page, type);
}

Filter parse_ok(std::string_view line) {
  auto filter = Filter::parse(line);
  EXPECT_TRUE(filter.has_value()) << "rule failed to parse: " << line;
  return *filter;
}

TEST(FilterParse, CommentsAndEmptyAreRejected) {
  EXPECT_FALSE(Filter::parse("").has_value());
  EXPECT_FALSE(Filter::parse("   ").has_value());
  EXPECT_FALSE(Filter::parse("! comment").has_value());
  EXPECT_FALSE(Filter::parse("[Adblock Plus 2.0]").has_value());
}

TEST(FilterParse, ElementHidingIsNotAUrlFilter) {
  EXPECT_FALSE(Filter::parse("##.ad-banner").has_value());
  EXPECT_FALSE(Filter::parse("example.com##.ad").has_value());
  EXPECT_FALSE(Filter::parse("example.com#@#.ad").has_value());
}

TEST(FilterParse, ExceptionPrefix) {
  EXPECT_FALSE(parse_ok("/ads/banner").is_exception());
  EXPECT_TRUE(parse_ok("@@/ads/banner").is_exception());
}

TEST(FilterParse, UnknownOptionDiscardsRule) {
  EXPECT_FALSE(Filter::parse("/ads/$bogus-option").has_value());
  EXPECT_FALSE(Filter::parse("/ads/$image,nonsense").has_value());
}

TEST(FilterParse, AnchorsAreRecognized) {
  const auto domain = parse_ok("||ads.example.com^");
  EXPECT_TRUE(domain.domain_anchor());
  const auto start = parse_ok("|http://ads.");
  EXPECT_TRUE(start.start_anchor());
  const auto end = parse_ok("/banner.gif|");
  EXPECT_TRUE(end.end_anchor());
}

TEST(FilterMatch, PlainSubstring) {
  const auto filter = parse_ok("/banners/");
  EXPECT_TRUE(filter.matches(req("http://x.example/banners/a.gif")));
  EXPECT_FALSE(filter.matches(req("http://x.example/content/a.gif")));
}

TEST(FilterMatch, WildcardSpansSegments) {
  const auto filter = parse_ok("/ads/*/img");
  EXPECT_TRUE(filter.matches(req("http://x.example/ads/v2/img")));
  EXPECT_TRUE(filter.matches(req("http://x.example/ads/a/b/img")));
  EXPECT_FALSE(filter.matches(req("http://x.example/ads/img")));
}

TEST(FilterMatch, CaretMatchesSeparatorOrEnd) {
  const auto filter = parse_ok("||example.com^");
  EXPECT_TRUE(filter.matches(req("http://example.com/")));
  EXPECT_TRUE(filter.matches(req("http://example.com")));  // end counts
  EXPECT_TRUE(filter.matches(req("http://example.com:8080/x")));
  // '.' is NOT a separator: example.com.evil.test must not match the
  // caret...
  EXPECT_FALSE(filter.matches(req("http://example.com.evil.test/")));
}

TEST(FilterMatch, DomainAnchorRequiresLabelBoundary) {
  const auto filter = parse_ok("||ads.example.com^");
  EXPECT_TRUE(filter.matches(req("http://ads.example.com/banner")));
  EXPECT_TRUE(filter.matches(req("http://sub.ads.example.com/banner")));
  EXPECT_FALSE(filter.matches(req("http://badads.example.com/banner")));
  EXPECT_FALSE(filter.matches(req("http://x.example/?u=ads.example.com")));
}

TEST(FilterMatch, DomainAnchorMatchesMidHost) {
  const auto filter = parse_ok("||example.com^");
  EXPECT_TRUE(filter.matches(req("http://a.b.example.com/")));
}

TEST(FilterMatch, StartAnchor) {
  const auto filter = parse_ok("|http://ads.");
  EXPECT_TRUE(filter.matches(req("http://ads.x.example/a")));
  EXPECT_FALSE(filter.matches(req("https://ads.x.example/a")));
  EXPECT_FALSE(filter.matches(req("http://x.example/?r=http://ads.q/")));
}

TEST(FilterMatch, EndAnchor) {
  const auto filter = parse_ok(".gif|");
  EXPECT_TRUE(filter.matches(req("http://x.example/a.gif")));
  EXPECT_FALSE(filter.matches(req("http://x.example/a.gif?x=1")));
}

TEST(FilterMatch, CaseInsensitiveByDefault) {
  const auto filter = parse_ok("/BANNERS/");
  EXPECT_TRUE(filter.matches(req("http://x.example/banners/a")));
  const auto cs = parse_ok("/BaNnErS/$match-case");
  EXPECT_FALSE(cs.matches(req("http://x.example/banners/a")));
  EXPECT_TRUE(cs.matches(req("http://x.example/BaNnErS/a")));
}

TEST(FilterMatch, TypeOptionsRestrict) {
  const auto filter = parse_ok("/ads/$script");
  EXPECT_TRUE(filter.matches(
      req("http://x.example/ads/a.js", "", RequestType::kScript)));
  EXPECT_FALSE(filter.matches(
      req("http://x.example/ads/a.gif", "", RequestType::kImage)));
}

TEST(FilterMatch, InverseTypeOptions) {
  const auto filter = parse_ok("/ads/$~image");
  EXPECT_FALSE(filter.matches(
      req("http://x.example/ads/a.gif", "", RequestType::kImage)));
  EXPECT_TRUE(filter.matches(
      req("http://x.example/ads/a.js", "", RequestType::kScript)));
}

TEST(FilterMatch, DocumentTypeNeedsExplicitOption) {
  // A bare blocking rule must not match main documents.
  const auto filter = parse_ok("||example.com^");
  EXPECT_FALSE(filter.matches(
      req("http://example.com/", "", RequestType::kDocument)));
}

TEST(FilterMatch, ThirdPartyConstraint) {
  const auto third = parse_ok("||adnet.example^$third-party");
  EXPECT_TRUE(third.matches(
      req("http://adnet.example/x.gif", "http://site.test/")));
  EXPECT_FALSE(third.matches(
      req("http://adnet.example/x.gif", "http://adnet.example/")));
  // Unknown page context counts as first-party.
  EXPECT_FALSE(third.matches(req("http://adnet.example/x.gif")));

  const auto first = parse_ok("||cdn.example^$~third-party");
  EXPECT_TRUE(first.matches(
      req("http://cdn.example/x.gif", "http://cdn.example/")));
  EXPECT_FALSE(first.matches(
      req("http://cdn.example/x.gif", "http://other.test/")));
}

TEST(FilterMatch, SubdomainIsFirstParty) {
  const auto third = parse_ok("||example.com^$third-party");
  EXPECT_FALSE(third.matches(
      req("http://static.example.com/x.gif", "http://www.example.com/")));
}

TEST(FilterMatch, DomainOption) {
  const auto filter = parse_ok("/promo/$domain=news.test|~live.news.test");
  EXPECT_TRUE(filter.matches(
      req("http://x.example/promo/a", "http://news.test/")));
  EXPECT_TRUE(filter.matches(
      req("http://x.example/promo/a", "http://sub.news.test/")));
  EXPECT_FALSE(filter.matches(
      req("http://x.example/promo/a", "http://live.news.test/")));
  EXPECT_FALSE(filter.matches(
      req("http://x.example/promo/a", "http://other.test/")));
  // No page context: include-constrained rules do not fire.
  EXPECT_FALSE(filter.matches(req("http://x.example/promo/a")));
}

TEST(FilterMatch, WildcardWithQueryValues) {
  // The paper's example: @@*jsp?callback=aslHandleAds*
  const auto filter = parse_ok("@@*jsp?callback=aslHandleAds*");
  EXPECT_TRUE(filter.matches(
      req("http://x.example/serve.jsp?callback=aslHandleAds123")));
  EXPECT_FALSE(filter.matches(
      req("http://x.example/serve.jsp?callback=other")));
}

TEST(FilterMatch, TrailingWildcardWithEndAnchorMatches) {
  const auto filter = parse_ok("/ads/*|");
  EXPECT_TRUE(filter.matches(req("http://x.example/ads/anything")));
}

TEST(FilterKeywords, ExtractedOnlyWhenReliable) {
  // Bounded on both sides by separators -> reliable.
  EXPECT_EQ(parse_ok("/banners/").index_keywords(),
            std::vector<std::string>{"banners"});
  // Unanchored edges are unreliable ("ads" could sit inside "leads").
  EXPECT_TRUE(parse_ok("ads").index_keywords().empty());
  // A '*' neighbour disqualifies.
  EXPECT_TRUE(parse_ok("/x*banners*y/").index_keywords().empty());
  // Domain anchor makes the leading run reliable.
  const auto kws = parse_ok("||ads.example.com^").index_keywords();
  ASSERT_EQ(kws.size(), 3u);
  EXPECT_EQ(kws[0], "ads");
  EXPECT_EQ(kws[1], "example");
  EXPECT_EQ(kws[2], "com");
}

TEST(FilterKeywords, ShortRunsSkipped) {
  EXPECT_TRUE(parse_ok("/ad/").index_keywords().empty());
}

// Property-style sweep: every filter must match a URL constructed to
// embed its pattern at a valid position.
struct MatchCase {
  const char* rule;
  const char* url;
  bool expect;
};

// ctest names each case after this printout (gtest_discover_tests pretty
// values); without it gtest dumps the struct's bytes, pointers included,
// and the names change with every run's load address.
void PrintTo(const MatchCase& c, std::ostream* os) {
  *os << c.rule << " vs " << c.url << (c.expect ? " matches" : " misses");
}

class FilterMatchSweep : public ::testing::TestWithParam<MatchCase> {};

TEST_P(FilterMatchSweep, Matches) {
  const auto& param = GetParam();
  const auto filter = Filter::parse(param.rule);
  ASSERT_TRUE(filter.has_value()) << param.rule;
  EXPECT_EQ(filter->matches(req(param.url)), param.expect)
      << param.rule << " vs " << param.url;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, FilterMatchSweep,
    ::testing::Values(
        MatchCase{"/ad_frame.", "http://s.test/ad_frame.html", true},
        MatchCase{"/ad_frame.", "http://s.test/bad_frame.html", false},
        MatchCase{"&ad_unit=", "http://s.test/x?y=1&ad_unit=3", true},
        MatchCase{"&ad_unit=", "http://s.test/x?ad_unit=3", false},
        MatchCase{"||ads.t.test^*.swf", "http://ads.t.test/x/y.swf", true},
        MatchCase{"||ads.t.test^*.swf", "http://ads.t.test/x/y.gif", false},
        MatchCase{"||t.test^banner", "http://t.test/banner", true},
        MatchCase{"||t.test^banner", "http://t.test/xbanner", false},
        MatchCase{"||t.test/banner", "http://t.test/banner", true},
        MatchCase{"|http://t.test/|", "http://t.test/", true},
        MatchCase{"|http://t.test/|", "http://t.test/x", false},
        MatchCase{"/a^b/", "http://t.test/a/b/", true},
        MatchCase{"/a^b/", "http://t.test/axb/", false},
        MatchCase{"^ads^", "http://t.test/ads/x", true},
        MatchCase{"^ads^", "http://t.test/loads/x", false},
        MatchCase{"||t.test^", "http://t.test", true},
        MatchCase{"track.gif?", "http://p.test/track.gif?id=7", true},
        MatchCase{"track.gif?", "http://p.test/track.gif", false}));

}  // namespace
}  // namespace adscope::adblock
