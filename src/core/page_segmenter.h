// Page-view segmentation — the ReSurf [56] / StreamStructure [38] layer.
//
// The referrer map answers "which page does this request belong to?";
// this module answers "how many page *views* did a user perform, and
// what did each contain?" — the unit behind the paper's activity
// statements ("1K requests ≈ a few page retrievals", §6.1) and the
// per-page-load resampling of Figure 2.
//
// A view opens when a user's request is attributed to a page not
// currently open for them, collects every subsequent request attributed
// to that page, and closes after an idle gap (think-time boundary, as
// in ReSurf) or at flush.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/flat_agg.h"

namespace adscope::core {

struct PageView {
  netdb::IpV4 client_ip = 0;
  std::string user_agent;
  std::string page_url;
  std::uint64_t start_ms = 0;
  std::uint64_t end_ms = 0;
  std::uint32_t objects = 0;
  std::uint32_t ad_objects = 0;
  std::uint64_t bytes = 0;

  double ad_share() const noexcept {
    return objects == 0 ? 0.0
                        : static_cast<double>(ad_objects) /
                              static_cast<double>(objects);
  }
};

class PageSegmenter {
 public:
  struct Options {
    /// A view closes when no request of its page arrives for this long
    /// (ReSurf's think-time boundary).
    std::uint64_t idle_gap_ms = 30'000;
    /// Concurrent open views tracked per user.
    std::size_t max_open_views = 16;
    /// Users tracked simultaneously (FIFO eviction, views flushed).
    std::size_t max_users = 1 << 16;
  };

  using Callback = std::function<void(const PageView&)>;

  PageSegmenter() : PageSegmenter(Options{}) {}
  explicit PageSegmenter(Options options) : options_(options) {}

  void set_callback(Callback callback) { callback_ = std::move(callback); }

  /// Stream in classified objects (per-user temporal order).
  void add(const ClassifiedObject& object);

  /// Close every open view.
  void flush();

  std::uint64_t views_emitted() const noexcept { return views_; }
  std::uint64_t objects_without_page() const noexcept { return orphans_; }

 private:
  struct UserViews {
    netdb::IpV4 ip = 0;
    std::string user_agent;
    // page url -> open view (small; linear structures suffice).
    std::vector<PageView> open;
  };

  void emit(const PageView& view);
  /// Emit `user.open[at]`, recycle its strings, and drop it from the
  /// open list (order of the remaining views is preserved).
  void close_view(UserViews& user, std::size_t at);
  void close_idle(UserViews& user, std::uint64_t now_ms);
  PageView acquire_view();

  Options options_;
  Callback callback_;
  FlatMap<std::uint64_t, UserViews> users_;  // by ClassifiedObject::user_key
  OrderRing user_order_;  // user keys in first-seen order
  // Closed views, string capacity kept for the next open.
  std::vector<PageView> recycle_;
  // Evicted users, open-list and string capacity kept for the next user.
  std::vector<UserViews> user_recycle_;
  // High-water string sizes; acquired slots reserve to these so
  // slot↔page pairing shifts never cause reallocation on a warm path.
  std::size_t url_cap_ = 0;
  std::size_t ua_cap_ = 0;
  std::uint64_t views_ = 0;
  std::uint64_t orphans_ = 0;
};

}  // namespace adscope::core
