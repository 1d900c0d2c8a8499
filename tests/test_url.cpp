// http: URL parsing/resolution, registrable domains, MIME taxonomy.
#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "http/mime.h"
#include "http/public_suffix.h"
#include "http/url.h"

namespace adscope::http {
namespace {

TEST(Url, ParseBasic) {
  const auto url = Url::parse("http://www.Example.COM/path/a.gif?x=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "www.example.com");
  EXPECT_EQ(url->path(), "/path/a.gif");
  EXPECT_EQ(url->query(), "x=1");
  EXPECT_EQ(url->port(), 0);  // default normalized away
  EXPECT_EQ(url->spec(), "http://www.example.com/path/a.gif?x=1");
}

TEST(Url, ParseRejectsGarbage) {
  EXPECT_FALSE(Url::parse("").has_value());
  EXPECT_FALSE(Url::parse("not a url").has_value());
  EXPECT_FALSE(Url::parse("http://").has_value());
  EXPECT_FALSE(Url::parse("://host/").has_value());
  EXPECT_FALSE(Url::parse("1http://x/").has_value());
}

TEST(Url, PortHandling) {
  const auto url = Url::parse("http://h.test:8080/x");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->port(), 8080);
  EXPECT_EQ(url->host_and_path(), "h.test:8080/x");
  const auto default_port = Url::parse("https://h.test:443/x");
  ASSERT_TRUE(default_port.has_value());
  EXPECT_EQ(default_port->port(), 0);
  EXPECT_FALSE(Url::parse("http://h.test:99999/").has_value());
}

TEST(Url, HostOnly) {
  const auto url = Url::parse("http://h.test");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->spec(), "http://h.test/");
}

// Fuzz regressions (fuzz/corpus/url/crash-*): parse must be a
// normalizing fixpoint — for any accepted input, parse(spec()) yields
// the same Url — and the non-parse constructors must uphold it too.
TEST(Url, HostRejectsDelimiterAndControlBytes) {
  // A hostile Host header must not smuggle authority delimiters into
  // host_, where spec() would re-delimit on re-parse.
  EXPECT_TRUE(Url::from_host_and_target("http\r//ex", "/").empty());
  EXPECT_TRUE(Url::from_host_and_target("a/b", "/").empty());
  EXPECT_TRUE(Url::from_host_and_target("a b", "/").empty());
  EXPECT_FALSE(Url::parse("http://a\tb/").has_value());
  EXPECT_FALSE(Url::parse("http://a\\b/").has_value());
  EXPECT_FALSE(Url::parse("http://sub\x80host/").has_value());
}

TEST(Url, Ipv6LiteralRoundTrips) {
  // Default-port drop must not strand "[::1]" unparseable: the port
  // split may only consider colons after the closing bracket.
  const auto url = Url::parse("http://[::1]:80/v6");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->port(), 0);
  EXPECT_EQ(url->spec(), "http://[::1]/v6");
  const auto again = Url::parse(url->spec());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *url);
  EXPECT_FALSE(Url::parse("http://[::zz]/").has_value());
}

TEST(Url, FragmentCutNeverExposesTrailingWhitespace) {
  // "?q= #frag": the fragment cut exposes a space that a re-parse of
  // spec() would trim — the first parse must trim it too.
  const auto url = Url::parse("http://h.test/p?q= #frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->query(), "q=");
  const auto resolved =
      Url::parse("http://h.test/")->resolve("/a b #frag");
  EXPECT_EQ(resolved.path(), "/a b");
}

TEST(Url, EmptyQueryNeverExposesTrailingWhitespace) {
  // A bare '?' leaves the query empty, so nothing follows the path in
  // spec(): a whitespace-ending path must be trimmed.
  const auto base = Url::parse("http://h.test/");
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->resolve("sub/pat ?").path(), "/sub/pat");
  EXPECT_EQ(Url::from_host_and_target("h.test", "/p ?").path(), "/p");
}

TEST(Url, ResolveEmptyReferenceRestoresFixpoint) {
  // Clearing the query exposes path whitespace that was mid-spec.
  const auto base = Url::parse("http://h.test/pa th ?x=1");
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->path(), "/pa th ");  // legal: '?' follows in spec
  const auto out = base->resolve("");
  EXPECT_EQ(out.path(), "/pa th");
  const auto again = Url::parse(out.spec());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, out);
}

TEST(Url, ResolveDropsFragments) {
  const auto base = Url::parse("http://h.test/dir/page");
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->resolve("other#frag").path(), "/dir/other");
  EXPECT_EQ(base->resolve("#frag").path(), "/dir/page");
}

TEST(Url, FromHostAndTarget) {
  const auto url = Url::from_host_and_target("H.Test", "/a/b?q=2");
  EXPECT_EQ(url.host(), "h.test");
  EXPECT_EQ(url.path(), "/a/b");
  EXPECT_EQ(url.query(), "q=2");
  EXPECT_FALSE(url.https());
  const auto tls = Url::from_host_and_target("h.test", "/", true);
  EXPECT_TRUE(tls.https());
  const auto empty = Url::from_host_and_target("", "/x");
  EXPECT_TRUE(empty.empty());
}

TEST(Url, ResolveAbsolute) {
  const auto base = *Url::parse("http://a.test/dir/page.html?x=1");
  EXPECT_EQ(base.resolve("http://b.test/other").spec(),
            "http://b.test/other");
}

TEST(Url, ResolveSchemeRelative) {
  const auto base = *Url::parse("https://a.test/dir/");
  EXPECT_EQ(base.resolve("//b.test/x").spec(), "https://b.test/x");
}

TEST(Url, ResolveAbsolutePath) {
  const auto base = *Url::parse("http://a.test/dir/page.html?x=1");
  const auto resolved = base.resolve("/new/path?y=2");
  EXPECT_EQ(resolved.spec(), "http://a.test/new/path?y=2");
}

TEST(Url, ResolveRelativePath) {
  const auto base = *Url::parse("http://a.test/dir/page.html");
  EXPECT_EQ(base.resolve("img.gif").spec(), "http://a.test/dir/img.gif");
}

TEST(Url, Extension) {
  EXPECT_EQ(Url::parse("http://x.test/a/b.GIF")->extension(), "gif");
  EXPECT_EQ(Url::parse("http://x.test/a.tar.gz")->extension(), "gz");
  EXPECT_EQ(Url::parse("http://x.test/dir.d/file")->extension(), "");
  EXPECT_EQ(Url::parse("http://x.test/file.")->extension(), "");
  EXPECT_EQ(Url::parse("http://x.test/")->extension(), "");
}

TEST(PublicSuffix, RegistrableDomain) {
  EXPECT_EQ(registrable_domain("www.example.com"), "example.com");
  EXPECT_EQ(registrable_domain("a.b.news.co.uk"), "news.co.uk");
  EXPECT_EQ(registrable_domain("example.com"), "example.com");
  EXPECT_EQ(registrable_domain("com"), "com");
  EXPECT_EQ(registrable_domain("localhost"), "localhost");
  EXPECT_EQ(registrable_domain("10.1.2.3"), "10.1.2.3");
}

TEST(PublicSuffix, ThirdParty) {
  EXPECT_FALSE(is_third_party("static.example.com", "www.example.com"));
  EXPECT_TRUE(is_third_party("ads.tracker.net", "www.example.com"));
  EXPECT_FALSE(is_third_party("", "www.example.com"));
}

TEST(PublicSuffix, HostMatchesDomain) {
  EXPECT_TRUE(host_matches_domain("a.b.test", "b.test"));
  EXPECT_TRUE(host_matches_domain("b.test", "b.test"));
  EXPECT_FALSE(host_matches_domain("ab.test", "b.test"));
  EXPECT_FALSE(host_matches_domain("b.test", "a.b.test"));
  EXPECT_FALSE(host_matches_domain("x", ""));
}

TEST(Mime, Canonicalization) {
  EXPECT_EQ(canonical_mime(" Text/HTML; charset=utf-8 "), "text/html");
  EXPECT_EQ(canonical_mime("image/GIF"), "image/gif");
  EXPECT_EQ(canonical_mime(""), "");
}

TEST(Mime, TypeFromMime) {
  EXPECT_EQ(type_from_mime("text/html"), RequestType::kDocument);
  EXPECT_EQ(type_from_mime("text/css"), RequestType::kStylesheet);
  EXPECT_EQ(type_from_mime("application/javascript"), RequestType::kScript);
  EXPECT_EQ(type_from_mime("image/webp"), RequestType::kImage);
  EXPECT_EQ(type_from_mime("video/x-flv"), RequestType::kMedia);
  EXPECT_EQ(type_from_mime("application/x-shockwave-flash"),
            RequestType::kObject);
  EXPECT_EQ(type_from_mime("application/json"), RequestType::kXhr);
  EXPECT_EQ(type_from_mime("text/plain"), RequestType::kOther);
  EXPECT_EQ(type_from_mime(""), RequestType::kOther);
  EXPECT_EQ(type_from_mime("-"), RequestType::kOther);
}

// §3.1's extension table, parameterized.
struct ExtCase {
  const char* ext;
  std::optional<RequestType> expected;
};

// Names each ctest case; see PrintTo(MatchCase) in test_filter.cpp.
void PrintTo(const ExtCase& c, std::ostream* os) {
  *os << '.' << c.ext << " is "
      << (c.expected ? to_string(*c.expected) : std::string_view("unmapped"));
}

class ExtensionTable : public ::testing::TestWithParam<ExtCase> {};

TEST_P(ExtensionTable, Maps) {
  EXPECT_EQ(type_from_extension(GetParam().ext), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, ExtensionTable,
    ::testing::Values(ExtCase{"png", RequestType::kImage},
                      ExtCase{"gif", RequestType::kImage},
                      ExtCase{"jpg", RequestType::kImage},
                      ExtCase{"svg", RequestType::kImage},
                      ExtCase{"ico", RequestType::kImage},
                      ExtCase{"css", RequestType::kStylesheet},
                      ExtCase{"js", RequestType::kScript},
                      ExtCase{"mp4", RequestType::kMedia},
                      ExtCase{"avi", RequestType::kMedia},
                      ExtCase{"swf", RequestType::kObject},
                      ExtCase{"html", RequestType::kDocument},
                      ExtCase{"xyz", std::nullopt},
                      ExtCase{"", std::nullopt}));

TEST(Mime, ContentClass) {
  EXPECT_EQ(class_from_mime("image/gif"), ContentClass::kImage);
  EXPECT_EQ(class_from_mime("text/plain"), ContentClass::kText);
  EXPECT_EQ(class_from_mime("video/mp4"), ContentClass::kVideo);
  EXPECT_EQ(class_from_mime("application/xml"), ContentClass::kApplication);
  EXPECT_EQ(class_from_mime(""), ContentClass::kOther);
}

}  // namespace
}  // namespace adscope::http
