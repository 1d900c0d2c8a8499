// FilterEngine classification semantics: list priority, exceptions,
// whitelisting, $document page whitelisting, literal lookup, and the
// zero-allocation guarantee of the warm classify path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "adblock/engine.h"

// --- global allocation-counting hook ---------------------------------
// Counts every operator-new in the binary; tests snapshot the counter
// around a region to assert the hot paths stay off the heap.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace adscope::adblock {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

using http::RequestType;

FilterList list_of(std::string_view text, ListKind kind, std::string name) {
  return FilterList::parse(text, kind, std::move(name));
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    easylist_ = engine_.add_list(list_of(
        "||adnet.test^$third-party\n"
        "/banners/\n"
        "@@||adnet.test/quality$script\n",
        ListKind::kEasyList, "easylist"));
    easyprivacy_ = engine_.add_list(list_of(
        "||tracker.test^$third-party\n"
        "/pixel.gif?\n",
        ListKind::kEasyPrivacy, "easyprivacy"));
    whitelist_ = engine_.add_list(list_of(
        "@@||adnet.test/aa/*\n"
        "@@||whitelisted-page.test^$document\n",
        ListKind::kAcceptableAds, "exceptionrules"));
  }

  Request ad_request(std::string url,
                     std::string page = "http://site.test/") {
    return make_request(url, page, RequestType::kImage);
  }

  FilterEngine engine_;
  ListId easylist_ = kNoList;
  ListId easyprivacy_ = kNoList;
  ListId whitelist_ = kNoList;
};

TEST_F(EngineTest, NoMatchForPlainContent) {
  const auto result =
      engine_.classify(ad_request("http://site.test/img/logo.png"));
  EXPECT_EQ(result.decision, Decision::kNoMatch);
  EXPECT_FALSE(result.is_ad());
}

TEST_F(EngineTest, BlockedByEasyList) {
  const auto result =
      engine_.classify(ad_request("http://adnet.test/b.gif"));
  EXPECT_EQ(result.decision, Decision::kBlocked);
  EXPECT_EQ(result.list, easylist_);
  EXPECT_TRUE(result.is_ad());
}

TEST_F(EngineTest, WarmEngineClassifyDoesNotAllocate) {
  const auto request = ad_request("http://adnet.test/banners/a.gif");
  const auto miss = ad_request("http://plain.test/logo.png");
  TokenScratch scratch;
  // Warm the scratch and the engine once per request; from here the
  // classify path owns no heap.
  for (const auto* warm : {&request, &miss}) {
    (void)engine_.classify(RequestView(*warm),
                           scratch.tokenize(warm->url_lower));
  }

  const auto before = allocations();
  for (int i = 0; i < 500; ++i) {
    const auto tokens = scratch.tokenize(request.url_lower);
    const auto verdict = engine_.classify(RequestView(request), tokens);
    ASSERT_EQ(verdict.decision, Decision::kBlocked);
    const auto miss_tokens = scratch.tokenize(miss.url_lower);
    const auto miss_verdict = engine_.classify(RequestView(miss), miss_tokens);
    ASSERT_EQ(miss_verdict.decision, Decision::kNoMatch);
  }
  EXPECT_EQ(allocations(), before);
}

TEST_F(EngineTest, BlockedByEasyPrivacy) {
  const auto result =
      engine_.classify(ad_request("http://tracker.test/pixel.gif?cb=1"));
  EXPECT_EQ(result.decision, Decision::kBlocked);
  EXPECT_EQ(result.list, easyprivacy_);
}

TEST_F(EngineTest, ListPriorityAttributesToEarlierList) {
  // Matches /banners/ (EasyList) and ||tracker.test^ (EasyPrivacy):
  // attribution goes to EasyList, like the paper's ordering.
  const auto result =
      engine_.classify(ad_request("http://tracker.test/banners/x.gif"));
  EXPECT_EQ(result.decision, Decision::kBlocked);
  EXPECT_EQ(result.list, easylist_);
}

TEST_F(EngineTest, WhitelistOverridesBlock) {
  const auto result =
      engine_.classify(ad_request("http://adnet.test/aa/banner.gif"));
  EXPECT_EQ(result.decision, Decision::kWhitelisted);
  EXPECT_EQ(result.list, whitelist_);
  EXPECT_TRUE(result.whitelist_saved_it());
  EXPECT_EQ(result.blocked_by_list, easylist_);
  EXPECT_TRUE(result.is_ad());
}

TEST_F(EngineTest, ExceptionInsideEasyListPreventsBlock) {
  const auto result = engine_.classify(make_request(
      "http://adnet.test/quality.js", "http://site.test/",
      RequestType::kScript));
  EXPECT_EQ(result.decision, Decision::kWhitelisted);
  EXPECT_EQ(result.list, easylist_);
}

TEST_F(EngineTest, ExceptionTypeMismatchStillBlocks) {
  // Same URL typed as document (the MIME-lie scenario): the $script
  // exception no longer applies and the blocking rule fires.
  const auto result = engine_.classify(make_request(
      "http://adnet.test/quality.js", "http://site.test/",
      RequestType::kSubdocument));
  EXPECT_EQ(result.decision, Decision::kBlocked);
}

TEST_F(EngineTest, DocumentExceptionWhitelistsWholePage) {
  const auto result = engine_.classify(make_request(
      "http://adnet.test/b.gif", "http://whitelisted-page.test/index.html",
      RequestType::kImage));
  EXPECT_EQ(result.decision, Decision::kWhitelisted);
  EXPECT_EQ(result.list, whitelist_);
}

TEST_F(EngineTest, DisabledListDoesNotMatch) {
  engine_.set_enabled(easyprivacy_, false);
  const auto result =
      engine_.classify(ad_request("http://tracker.test/t.js"));
  EXPECT_EQ(result.decision, Decision::kNoMatch);
  engine_.set_enabled(easyprivacy_, true);
  EXPECT_EQ(engine_.classify(ad_request("http://tracker.test/t.js")).decision,
            Decision::kBlocked);
}

TEST_F(EngineTest, WhitelistOnlyMatchIsStillAnAdSignal) {
  // AA rule hits although no blacklist rule does (over-general rule):
  // counted as whitelisted with no blocked_by.
  engine_.set_enabled(easylist_, false);
  const auto result =
      engine_.classify(ad_request("http://adnet.test/aa/banner.gif"));
  EXPECT_EQ(result.decision, Decision::kWhitelisted);
  EXPECT_FALSE(result.whitelist_saved_it());
}

TEST_F(EngineTest, FindListByKind) {
  EXPECT_EQ(engine_.find_list(ListKind::kEasyList), easylist_);
  EXPECT_EQ(engine_.find_list(ListKind::kEasyPrivacy), easyprivacy_);
  EXPECT_EQ(engine_.find_list(ListKind::kAcceptableAds), whitelist_);
  EXPECT_EQ(engine_.find_list(ListKind::kEasyListDerivative), kNoList);
}

TEST_F(EngineTest, PatternLiteralLookup) {
  EXPECT_TRUE(engine_.pattern_contains_literal("banners"));
  EXPECT_TRUE(engine_.pattern_contains_literal("pixel.gif?"));
  EXPECT_FALSE(engine_.pattern_contains_literal("zzz-not-there"));
}

TEST(EngineEdge, EmptyEngineNeverMatches) {
  FilterEngine engine;
  const auto result = engine.classify(
      make_request("http://ads.test/banner.gif", "", RequestType::kImage));
  EXPECT_EQ(result.decision, Decision::kNoMatch);
  EXPECT_EQ(engine.active_filter_count(), 0u);
}

TEST(EngineEdge, ManyFiltersTokenIndexStaysCorrect) {
  // Build a list with thousands of distinct domain rules; verify a few
  // random probes agree with brute force.
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "||adhost" + std::to_string(i) + ".test^$third-party\n";
  }
  FilterEngine engine;
  engine.add_list(
      FilterList::parse(text, ListKind::kEasyList, "big"));
  for (int i = 0; i < 3000; i += 97) {
    const auto url =
        "http://adhost" + std::to_string(i) + ".test/x.gif";
    const auto result = engine.classify(
        make_request(url, "http://page.test/", http::RequestType::kImage));
    EXPECT_EQ(result.decision, Decision::kBlocked) << url;
  }
  const auto miss = engine.classify(make_request(
      "http://adhost99999.test/x.gif", "http://page.test/",
      http::RequestType::kImage));
  EXPECT_EQ(miss.decision, Decision::kNoMatch);
}

}  // namespace
}  // namespace adscope::adblock
