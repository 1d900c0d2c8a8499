// core: ReSurf-style page-view segmentation.
#include <gtest/gtest.h>

#include "core/page_segmenter.h"
#include "support/owned_object.h"

namespace adscope::core {
namespace {

test::OwnedObject make_object(const std::string& page, std::uint64_t t_ms,
                              bool ad = false, netdb::IpV4 ip = 1,
                              const std::string& ua = "ua") {
  test::OwnedObject object;
  object.object.client_ip = ip;
  object.object.user_agent = ua;
  object.object.timestamp_ms = t_ms;
  object.object.content_length = 100;
  object.object.url = *http::Url::parse(page + "obj");
  object.page_url = page;
  if (ad) {
    object.verdict.decision = adblock::Decision::kBlocked;
    object.verdict.list_kind = adblock::ListKind::kEasyList;
  }
  return object;
}

class SegmenterTest : public ::testing::Test {
 protected:
  SegmenterTest() {
    segmenter_.set_callback(
        [this](const PageView& view) { views_.push_back(view); });
  }

  PageSegmenter segmenter_;
  std::vector<PageView> views_;
};

TEST_F(SegmenterTest, SingleViewAggregates) {
  segmenter_.add(make_object("http://a.test/", 1000));
  segmenter_.add(make_object("http://a.test/", 1500, /*ad=*/true));
  segmenter_.add(make_object("http://a.test/", 2000));
  EXPECT_TRUE(views_.empty());  // still open
  segmenter_.flush();
  ASSERT_EQ(views_.size(), 1u);
  EXPECT_EQ(views_[0].page_url, "http://a.test/");
  EXPECT_EQ(views_[0].objects, 3u);
  EXPECT_EQ(views_[0].ad_objects, 1u);
  EXPECT_EQ(views_[0].bytes, 300u);
  EXPECT_EQ(views_[0].start_ms, 1000u);
  EXPECT_EQ(views_[0].end_ms, 2000u);
  EXPECT_NEAR(views_[0].ad_share(), 1.0 / 3.0, 1e-9);
}

TEST_F(SegmenterTest, IdleGapSplitsRevisits) {
  segmenter_.add(make_object("http://a.test/", 1000));
  // Same page after a long pause: a NEW view (revisit).
  segmenter_.add(make_object("http://a.test/", 1000 + 40'000));
  segmenter_.flush();
  ASSERT_EQ(segmenter_.views_emitted(), 2u);
}

TEST_F(SegmenterTest, ConcurrentPagesStaySeparate) {
  segmenter_.add(make_object("http://a.test/", 1000));
  segmenter_.add(make_object("http://b.test/", 1200));  // second tab
  segmenter_.add(make_object("http://a.test/", 1400));
  segmenter_.flush();
  ASSERT_EQ(views_.size(), 2u);
  std::uint32_t total = 0;
  for (const auto& view : views_) total += view.objects;
  EXPECT_EQ(total, 3u);
}

TEST_F(SegmenterTest, UsersAreSeparate) {
  segmenter_.add(make_object("http://a.test/", 1000, false, 1));
  segmenter_.add(make_object("http://a.test/", 1100, false, 2));
  segmenter_.flush();
  EXPECT_EQ(views_.size(), 2u);
}

TEST_F(SegmenterTest, PagelessObjectsCounted) {
  test::OwnedObject orphan = make_object("http://a.test/", 1000);
  orphan.page_url.clear();
  segmenter_.add(orphan);
  segmenter_.flush();
  EXPECT_EQ(segmenter_.views_emitted(), 0u);
  EXPECT_EQ(segmenter_.objects_without_page(), 1u);
}

TEST_F(SegmenterTest, OpenViewCapEvictsStalest) {
  PageSegmenter::Options options;
  options.max_open_views = 2;
  PageSegmenter segmenter(options);
  std::vector<PageView> views;
  segmenter.set_callback(
      [&](const PageView& view) { views.push_back(view); });
  segmenter.add(make_object("http://a.test/", 1000));
  segmenter.add(make_object("http://b.test/", 1100));
  segmenter.add(make_object("http://c.test/", 1200));  // evicts a
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].page_url, "http://a.test/");
}

TEST_F(SegmenterTest, RealisticStreamProducesSaneViews) {
  // 50 "page loads" of ~20 objects each, interleaved across 5 users.
  std::uint64_t t = 0;
  for (int page = 0; page < 50; ++page) {
    const auto url = "http://site" + std::to_string(page % 7) +
                     ".test/p" + std::to_string(page);
    const auto ip = static_cast<netdb::IpV4>(1 + page % 5);
    for (int object = 0; object < 20; ++object) {
      segmenter_.add(make_object(url, t, object % 5 == 0, ip));
      t += 100;
    }
    t += 60'000;  // think time
  }
  segmenter_.flush();
  EXPECT_EQ(segmenter_.views_emitted(), 50u);
  for (const auto& view : views_) {
    EXPECT_EQ(view.objects, 20u);
    EXPECT_EQ(view.ad_objects, 4u);
  }
}

}  // namespace
}  // namespace adscope::core
