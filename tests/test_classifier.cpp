// core: the TraceClassifier pipeline — page attribution, content-type
// inference with redirect patching, emission semantics, and the
// allocation-reusing request helpers (PageContext, make_request_into).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/classifier.h"
#include "core/page_segmenter.h"
#include "core/user_index.h"
#include "support/owned_object.h"
#include "util/strings.h"

namespace adscope::core {
namespace {

adblock::FilterEngine make_engine() {
  adblock::FilterEngine engine;
  engine.add_list(adblock::FilterList::parse(
      "||adnet.test^$third-party\n"
      "/banners/\n"
      "@@||adnet.test/quality$script\n",
      adblock::ListKind::kEasyList, "el"));
  return engine;
}

class ClassifierTest : public ::testing::Test {
 protected:
  void SetUp() override { reset({}); }

  void reset(ClassifierOptions options) {
    classifier_ = std::make_unique<TraceClassifier>(engine_, options);
    output_.clear();
    classifier_->set_callback(
        [this](const ClassifiedObject& out) { output_.emplace_back(out); });
  }

  analyzer::WebObject object(const std::string& url,
                             const std::string& referer,
                             const std::string& mime,
                             std::uint16_t status = 200,
                             const std::string& location = "") {
    analyzer::WebObject web;
    web.url = *http::Url::parse(url);
    web.referer = referer;
    web.content_type = mime;
    web.status_code = status;
    if (!location.empty()) web.location = *http::Url::parse(location);
    web.client_ip = 1;
    web.user_agent = "test-ua";
    web.content_length = 100;
    return web;
  }

  const test::OwnedObject& find(const std::string& url_spec) {
    for (const auto& out : output_) {
      if (out.object.url.spec() == url_spec) return out;
    }
    ADD_FAILURE() << "not emitted: " << url_spec;
    static test::OwnedObject dummy;
    return dummy;
  }

  adblock::FilterEngine engine_ = make_engine();
  std::unique_ptr<TraceClassifier> classifier_;
  std::vector<test::OwnedObject> output_;
};

TEST_F(ClassifierTest, DocumentStartsPage) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  ASSERT_EQ(output_.size(), 1u);
  EXPECT_EQ(output_[0].type, http::RequestType::kDocument);
  EXPECT_EQ(output_[0].page_url, "http://site.test/index.html");
  EXPECT_EQ(output_[0].page_host, "site.test");
}

TEST_F(ClassifierTest, RefererAssignsPage) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  classifier_->process(object("http://adnet.test/b.gif",
                              "http://site.test/index.html", "image/gif"));
  ASSERT_EQ(output_.size(), 2u);
  EXPECT_EQ(output_[1].page_url, "http://site.test/index.html");
  // Third-party rule fires because page context is known.
  EXPECT_EQ(output_[1].verdict.decision, adblock::Decision::kBlocked);
}

TEST_F(ClassifierTest, RefererChainThroughSubresources) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  classifier_->process(object("http://site.test/frame.html",
                              "http://site.test/index.html", "text/html"));
  classifier_->process(object("http://adnet.test/inner.gif",
                              "http://site.test/frame.html", "image/gif"));
  // The iframe is a subdocument, and its child maps to the ROOT page.
  EXPECT_EQ(find("http://site.test/frame.html").type,
            http::RequestType::kSubdocument);
  EXPECT_EQ(find("http://adnet.test/inner.gif").page_url,
            "http://site.test/index.html");
}

TEST_F(ClassifierTest, ExtensionBeatsContentType) {
  classifier_->process(
      object("http://site.test/app.js", "", "text/html"));  // lying header
  EXPECT_EQ(output_[0].type, http::RequestType::kScript);
  EXPECT_TRUE(output_[0].type_from_extension);
}

TEST_F(ClassifierTest, MimeFallbackWhenNoExtension) {
  classifier_->process(object("http://site.test/api", "", "text/css"));
  EXPECT_EQ(output_[0].type, http::RequestType::kStylesheet);
  EXPECT_FALSE(output_[0].type_from_extension);
}

TEST_F(ClassifierTest, RedirectHeldAndPatchedByTarget) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  // Redirect source: no extension, misleading CT; target is an image.
  classifier_->process(object("http://adnet.test/adclick?d=1",
                              "http://site.test/index.html", "text/html", 302,
                              "http://adnet.test/banners/b.gif"));
  EXPECT_EQ(output_.size(), 1u);  // held
  classifier_->process(
      object("http://adnet.test/banners/b.gif", "", "image/gif"));
  ASSERT_EQ(output_.size(), 3u);
  const auto& source = find("http://adnet.test/adclick?d=1");
  EXPECT_EQ(source.type, http::RequestType::kImage);  // typed by target
  // Target got its page via Location patching despite the empty Referer.
  const auto& target = find("http://adnet.test/banners/b.gif");
  EXPECT_EQ(target.page_url, "http://site.test/index.html");
  EXPECT_EQ(classifier_->redirects_patched(), 1u);
}

TEST_F(ClassifierTest, HeldRedirectExpiresAfterWindow) {
  ClassifierOptions options;
  options.redirect_window = 3;
  reset(options);
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  classifier_->process(object("http://adnet.test/adclick?d=1",
                              "http://site.test/index.html", "text/html", 302,
                              "http://never.test/x"));
  for (int i = 0; i < 5; ++i) {
    classifier_->process(object("http://site.test/img" + std::to_string(i) +
                                    ".gif",
                                "http://site.test/index.html", "image/gif"));
  }
  EXPECT_EQ(classifier_->redirects_expired(), 1u);
  // The expired redirect was still emitted (with its own inferred type).
  find("http://adnet.test/adclick?d=1");
}

TEST_F(ClassifierTest, FlushEmitsHeldRedirects) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  classifier_->process(object("http://adnet.test/adclick?d=1",
                              "http://site.test/index.html", "text/html", 302,
                              "http://never.test/x"));
  EXPECT_EQ(output_.size(), 1u);
  classifier_->flush();
  EXPECT_EQ(output_.size(), 2u);
}

TEST_F(ClassifierTest, RedirectPatchingDisabled) {
  ClassifierOptions options;
  options.redirect_patching = false;
  reset(options);
  classifier_->process(object("http://adnet.test/adclick?d=1",
                              "http://site.test/index.html", "text/html", 302,
                              "http://adnet.test/banners/b.gif"));
  EXPECT_EQ(output_.size(), 1u);  // emitted immediately
}

TEST_F(ClassifierTest, EmbeddedUrlAttributesPage) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  classifier_->process(object(
      "http://adnet.test/render.js?img=http%3A%2F%2Fadnet.test%2Fdelivery"
      "%2Fb.gif",
      "http://site.test/index.html", "application/javascript"));
  classifier_->process(
      object("http://adnet.test/delivery/b.gif", "", "image/gif"));
  const auto& creative = find("http://adnet.test/delivery/b.gif");
  EXPECT_EQ(creative.page_url, "http://site.test/index.html");
  EXPECT_EQ(creative.verdict.decision, adblock::Decision::kBlocked);
}

TEST_F(ClassifierTest, UsersAreIsolated) {
  classifier_->process(object("http://site.test/index.html", "", "text/html"));
  auto other_user = object("http://adnet.test/b.gif",
                           "http://site.test/index.html", "image/gif");
  other_user.client_ip = 99;  // different household, same referer string
  classifier_->process(other_user);
  // Page attribution still works (referer is self-contained)...
  EXPECT_EQ(output_[1].page_url, "http://site.test/index.html");
  // ...but per-user maps are separate: the other user's refmap never saw
  // the document, so page came from the raw referer, not a stored page.
}

TEST_F(ClassifierTest, UserEvictionFlushesPending) {
  ClassifierOptions options;
  options.max_users = 2;
  reset(options);
  auto redirect = object("http://adnet.test/adclick?d=1", "", "text/html",
                         302, "http://x.test/y");
  redirect.client_ip = 1;
  classifier_->process(redirect);
  for (netdb::IpV4 ip = 2; ip <= 4; ++ip) {
    auto obj = object("http://site.test/a.gif", "", "image/gif");
    obj.client_ip = ip;
    classifier_->process(obj);
  }
  // User 1 was evicted; its held redirect must have been emitted.
  find("http://adnet.test/adclick?d=1");
}

// --- the user key, from the classifier into the per-user aggregates ---

TEST_F(ClassifierTest, TwoUserAgentsBehindOneIpStayTwoUsers) {
  UserIndex index;
  PageSegmenter segmenter;
  std::vector<PageView> views;
  segmenter.set_callback([&](const PageView& view) { views.push_back(view); });
  classifier_->set_callback([&](const ClassifiedObject& out) {
    EXPECT_EQ(out.user_key,
              user_key(out.object.client_ip, out.object.user_agent));
    index.add(out);
    segmenter.add(out);
  });
  for (const char* ua : {"ua-a", "ua-b", "ua-a"}) {
    auto web = object("http://site.test/index.html", "", "text/html");
    web.user_agent = ua;  // one IP (NAT), two browsers
    classifier_->process(web);
  }
  classifier_->flush();
  segmenter.flush();
  ASSERT_EQ(index.users().size(), 2u);
  for (const auto& [key, stats] : index.users()) {
    EXPECT_EQ(key, user_key(1, stats.user_agent));
    EXPECT_EQ(stats.requests, stats.user_agent == "ua-a" ? 2u : 1u);
  }
  ASSERT_EQ(views.size(), 2u);  // the same page, viewed by each browser
  EXPECT_NE(views[0].user_agent, views[1].user_agent);
}

TEST_F(ClassifierTest, EvictedUsersKeepOneIndexEntryEach) {
  ClassifierOptions options;
  options.max_users = 1;
  reset(options);
  UserIndex index;
  classifier_->set_callback(
      [&](const ClassifiedObject& out) { index.add(out); });
  // Two users alternate, so each arrival evicts the other; the evicted
  // user's held redirect is emitted under its own key, and a returning
  // user lands in a recycled slot under its own key again.
  for (int round = 0; round < 4; ++round) {
    for (const char* ua : {"ua-a", "ua-b"}) {
      auto page = object("http://site.test/", "", "text/html");
      auto redirect = object("http://site.test/out", "http://site.test/",
                             "text/html", 302, "http://cdn.test/x.gif");
      page.user_agent = ua;
      redirect.user_agent = ua;
      classifier_->process(page);
      classifier_->process(redirect);
    }
  }
  classifier_->flush();
  EXPECT_EQ(classifier_->redirects_expired(), 8u);
  ASSERT_EQ(index.users().size(), 2u);
  for (const auto& [key, stats] : index.users()) {
    EXPECT_EQ(key, user_key(1, stats.user_agent));
    EXPECT_EQ(stats.requests, 8u);
  }
}

TEST_F(ClassifierTest, ProcessedCounter) {
  classifier_->process(object("http://a.test/", "", "text/html"));
  classifier_->process(object("http://b.test/", "", "text/html"));
  EXPECT_EQ(classifier_->processed(), 2u);
}

TEST(ClassifierCacheTest, PageContextMatchesFreshComputation) {
  PageContext context;
  const std::vector<std::string> pages = {
      "http://site.test/index.html",
      "http://site.test/index.html",  // repeat -> memo hit
      "HTTP://Other.Test/Page",
      "",
      "not a url",
      "http://site.test/index.html",
  };
  for (const auto& page : pages) {
    const auto& info = context.lookup(page);
    EXPECT_EQ(info.page, page);
    EXPECT_EQ(info.page_lower, util::to_lower(page));
    std::string expected_host;
    if (!page.empty()) {
      if (const auto parsed = http::Url::parse(page)) {
        expected_host = parsed->host();
      }
    }
    EXPECT_EQ(info.page_host, expected_host) << page;
  }
}

TEST(ClassifierCacheTest, MakeRequestIntoMatchesMakeRequest) {
  adblock::Request reused;
  const std::vector<std::tuple<std::string, std::string, http::RequestType>>
      cases = {
          {"http://a.test/x.gif", "http://page.test/", http::RequestType::kImage},
          {"  http://trim.test/y ", "", http::RequestType::kScript},
          {"HTTPS://Upper.Test/Z?Q=1", "HTTP://Page.Test/Index.HTML",
           http::RequestType::kDocument},
      };
  for (const auto& [url, page, type] : cases) {
    const auto fresh = adblock::make_request(url, page, type);
    adblock::make_request_into(url, page, type, reused);
    EXPECT_EQ(reused.url, fresh.url);
    EXPECT_EQ(reused.url_lower, fresh.url_lower);
    EXPECT_EQ(reused.host, fresh.host);
    EXPECT_EQ(reused.page_host, fresh.page_host);
    EXPECT_EQ(reused.page_url_lower, fresh.page_url_lower);
    EXPECT_EQ(reused.type, fresh.type);
  }
}

}  // namespace
}  // namespace adscope::core
