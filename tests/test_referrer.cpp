// core: bounded maps, referrer map, embedded-URL extraction.
#include <gtest/gtest.h>

#include <string>

#include "core/bounded_map.h"
#include "core/referrer_map.h"
#include "util/hash.h"

namespace adscope::core {
namespace {

TEST(BoundedMap, PutGetTake) {
  BoundedStringMap map(4);
  map.put("a", "1");
  EXPECT_EQ(map.get("a"), "1");
  map.put("a", "2");  // overwrite, no growth
  EXPECT_EQ(map.get("a"), "2");
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.take("a"), "2");
  EXPECT_FALSE(map.get("a").has_value());
  EXPECT_FALSE(map.take("a").has_value());
}

TEST(BoundedMap, FifoEviction) {
  BoundedStringMap map(3);
  map.put("a", "1");
  map.put("b", "2");
  map.put("c", "3");
  map.put("d", "4");  // evicts "a"
  EXPECT_FALSE(map.get("a").has_value());
  EXPECT_EQ(map.get("d"), "4");
  EXPECT_LE(map.size(), 3u);
}

TEST(BoundedMap, HardCapUnderChurn) {
  BoundedStringMap map(16);
  for (int i = 0; i < 10000; ++i) {
    map.put("key" + std::to_string(i), "v");
    ASSERT_LE(map.size(), 16u);
  }
}

TEST(BoundedMap, OverwriteKeepsFifoPosition) {
  BoundedStringMap map(3);
  map.put("a", "1");
  map.put("b", "2");
  map.put("c", "3");
  map.put("a", "9");  // overwrite must NOT refresh "a"'s position
  map.put("d", "4");  // "a" is still oldest and dies first
  EXPECT_FALSE(map.get("a").has_value());
  EXPECT_EQ(map.get("b"), "2");
  EXPECT_EQ(map.get("c"), "3");
  EXPECT_EQ(map.get("d"), "4");
}

TEST(BoundedMap, TakeLeavesStaleOrderEntry) {
  BoundedStringMap map(3);
  map.put("a", "1");
  map.put("b", "2");
  EXPECT_EQ(map.take("a"), "1");
  map.put("a", "9");  // re-insert: the stale front entry now names "a"
  map.put("c", "3");
  map.put("d", "4");  // overflow pops the stale "a" first, killing it
  EXPECT_FALSE(map.get("a").has_value());
  EXPECT_EQ(map.get("b"), "2");
  EXPECT_EQ(map.get("c"), "3");
  EXPECT_EQ(map.get("d"), "4");
}

TEST(BoundedMap, EvictionSkipsTakenKeys) {
  BoundedStringMap map(2);
  map.put("a", "1");
  map.put("b", "2");
  EXPECT_EQ(map.take("a"), "1");
  map.put("c", "3");  // size 2 == cap: nothing to evict yet
  map.put("d", "4");  // pops stale "a" entry, then evicts "b"
  EXPECT_FALSE(map.get("b").has_value());
  EXPECT_EQ(map.get("c"), "3");
  EXPECT_EQ(map.get("d"), "4");
  EXPECT_LE(map.size(), 2u);
}

TEST(BoundedMap, BorrowingFindAndTakeInto) {
  BoundedStringMap map(4);
  map.put(std::string_view("key"), std::string_view("value"));
  const std::string* found = map.find("key");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, "value");
  EXPECT_EQ(map.find("missing"), nullptr);
  std::string out = "untouched";
  EXPECT_FALSE(map.take_into("missing", out));
  EXPECT_EQ(out, "untouched");
  EXPECT_TRUE(map.take_into("key", out));
  EXPECT_EQ(out, "value");
  EXPECT_EQ(map.size(), 0u);
}

TEST(BoundedMap, HashedOverloadsAgreeWithStringOverloads) {
  // One churn script (puts, overwrites, takes, FIFO eviction) through
  // the string overloads and through the (hash, key) overloads: every
  // lookup must agree, whichever overload asks.
  BoundedStringMap by_key(8);
  BoundedStringMap by_hash(8);
  std::string out_key;
  std::string out_hash;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "http://s.test/" + std::to_string(i % 23);
    const std::string value = "v" + std::to_string(i);
    const auto hash = util::block_hash(key);
    if (i % 5 == 4) {
      ASSERT_EQ(by_key.take_into(key, out_key),
                by_hash.take_into(hash, key, out_hash));
      ASSERT_EQ(out_key, out_hash);
    } else {
      by_key.put(key, value);
      by_hash.put(hash, key, value);
    }
    ASSERT_EQ(by_key.size(), by_hash.size());
    for (int k = 0; k < 23; ++k) {
      const std::string probe = "http://s.test/" + std::to_string(k);
      const auto probe_hash = util::block_hash(probe);
      const std::string* a = by_key.find(probe);
      const std::string* b = by_hash.find(probe_hash, probe);
      ASSERT_EQ(a == nullptr, b == nullptr) << probe << " at step " << i;
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
      ASSERT_EQ(by_key.find(probe_hash, probe), a);
      ASSERT_EQ(by_hash.find(probe), b);
    }
  }
}

TEST(ReferrerMap, HashedOverloadsMatchStringOverloads) {
  ReferrerMap map(64);
  const std::string url = "http://s.test/img.gif";
  const std::string target = "http://cdn.test/banner.gif";
  map.note_object(util::block_hash(url), url, "http://s.test/");
  map.note_redirect(util::block_hash(target), target, "http://s.test/");
  map.note_embedded(url, "http://e.test/");
  ASSERT_NE(map.page_of(url), nullptr);
  EXPECT_EQ(*map.page_of(url), "http://s.test/");
  ASSERT_NE(map.embedded_page(util::block_hash(url), url), nullptr);
  EXPECT_EQ(*map.embedded_page(util::block_hash(url), url), "http://e.test/");
  std::string page;
  EXPECT_TRUE(
      map.take_redirect_page_into(util::block_hash(target), target, page));
  EXPECT_EQ(page, "http://s.test/");
  EXPECT_FALSE(map.take_redirect_page_into(target, page));
}

TEST(ReferrerMap, ObjectPages) {
  ReferrerMap map(64);
  map.note_object("http://s.test/img.gif", "http://s.test/");
  const std::string* page = map.page_of("http://s.test/img.gif");
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(*page, "http://s.test/");
  EXPECT_EQ(map.page_of("http://unknown/"), nullptr);
}

TEST(ReferrerMap, RedirectConsumedOnce) {
  ReferrerMap map(64);
  map.note_redirect("http://cdn.test/banner.gif", "http://s.test/");
  std::string page;
  EXPECT_TRUE(map.take_redirect_page_into("http://cdn.test/banner.gif", page));
  EXPECT_EQ(page, "http://s.test/");
  EXPECT_FALSE(map.take_redirect_page_into("http://cdn.test/banner.gif", page));
}

TEST(ReferrerMap, EmbeddedPages) {
  ReferrerMap map(64);
  map.note_embedded("http://ad.test/x.gif", "http://s.test/");
  const std::string* page = map.embedded_page("http://ad.test/x.gif");
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(*page, "http://s.test/");
}

TEST(EmbeddedUrls, PlainUrlInQuery) {
  const auto urls =
      extract_embedded_urls("u=http://a.test/path&x=1");
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], "http://a.test/path");
}

TEST(EmbeddedUrls, PercentEncodedUrl) {
  const auto urls = extract_embedded_urls(
      "dl=http%3A%2F%2Fnews.test%2Fstory.html&z=9");
  ASSERT_GE(urls.size(), 1u);
  EXPECT_EQ(urls[0], "http://news.test/story.html");
}

TEST(EmbeddedUrls, MultipleAndHttps) {
  const auto urls = extract_embedded_urls(
      "a=http://one.test/&b=https://two.test/x");
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0], "http://one.test/");
  EXPECT_EQ(urls[1], "https://two.test/x");
}

TEST(EmbeddedUrls, IgnoresNonUrls) {
  EXPECT_TRUE(extract_embedded_urls("q=httpstatus&x=http").empty());
  EXPECT_TRUE(extract_embedded_urls("").empty());
  EXPECT_TRUE(extract_embedded_urls("plain=value").empty());
}

TEST(EmbeddedUrls, StopsAtDelimiters) {
  const auto urls = extract_embedded_urls("u=http://a.test/p&next=1");
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], "http://a.test/p");
}

}  // namespace
}  // namespace adscope::core
