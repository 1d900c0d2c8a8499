// Referrer map — partial Web-page reconstruction from HTTP headers
// (§3.1 "Referrer Map", after StreamStructure [38] and ReSurf [56]).
//
// Associates every requested URL with the page ("root document") that
// triggered it, using three signals:
//   1. the Referer chain (a request's page is its referer's page),
//   2. Location headers — a redirect's target inherits the source's page,
//      repairing chains broken by redirects that drop the Referer,
//   3. URLs embedded in query strings (e.g. ad impressions carrying the
//      landing page), which also bind the embedded URL to the page.
//
// One instance per end user (IP + User-Agent); all state is bounded.
// The lookup surface is borrowing (string_view in, pointer or
// caller-buffer out) so the classifier's per-record path stays off the
// heap; see core/bounded_map.h for the storage. Each call also comes in
// a (hash, spec) form taking util::block_hash(spec) precomputed: the
// classifier hashes a record's URL spec once for all of its lookups.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounded_map.h"
#include "http/url.h"

namespace adscope::core {

class ReferrerMap {
 public:
  explicit ReferrerMap(std::size_t capacity = 2048)
      : page_of_(capacity),
        redirect_page_(capacity / 4),
        embedded_page_(capacity / 4) {}

  /// Record that `url_spec` belongs to `page` (both full URL specs).
  void note_object(std::string_view url_spec, std::string_view page) {
    page_of_.put(url_spec, page);
  }
  void note_object(std::uint64_t hash, std::string_view url_spec,
                   std::string_view page) {
    page_of_.put(hash, url_spec, page);
  }

  /// Page a previously seen URL belongs to; owned by the map, valid
  /// until the next mutation.
  const std::string* page_of(std::string_view url_spec) const {
    return page_of_.find(url_spec);
  }

  /// Record that a redirect pointed at `target_spec` from a request on
  /// `page` — the repair for referer-less post-redirect requests.
  void note_redirect(std::string_view target_spec, std::string_view page) {
    redirect_page_.put(target_spec, page);
  }
  void note_redirect(std::uint64_t hash, std::string_view target_spec,
                     std::string_view page) {
    redirect_page_.put(hash, target_spec, page);
  }

  /// Consume the page recorded for a redirect target into `out`
  /// (capacity reuse); false when none was recorded.
  bool take_redirect_page_into(std::string_view target_spec,
                               std::string& out) {
    return redirect_page_.take_into(target_spec, out);
  }
  bool take_redirect_page_into(std::uint64_t hash, std::string_view target_spec,
                               std::string& out) {
    return redirect_page_.take_into(hash, target_spec, out);
  }

  /// Record a URL found embedded in another request's query string.
  void note_embedded(std::string_view url_spec, std::string_view page) {
    embedded_page_.put(url_spec, page);
  }

  const std::string* embedded_page(std::string_view url_spec) const {
    return embedded_page_.find(url_spec);
  }
  const std::string* embedded_page(std::uint64_t hash,
                                   std::string_view url_spec) const {
    return embedded_page_.find(hash, url_spec);
  }

 private:
  BoundedStringMap page_of_;
  BoundedStringMap redirect_page_;
  BoundedStringMap embedded_page_;
};

/// Reusable scanner for absolute URLs embedded in query strings: plain
/// ("...&u=http://x/y") and percent-encoded ("...&u=http%3A%2F%2Fx%2Fy")
/// forms. One instance per classifier; scan() reuses its string and Url
/// scratch so repeated calls settle to zero allocations.
class EmbeddedUrlScanner {
 public:
  /// Scan `query`; found URL specs are readable via count()/spec()
  /// until the next scan() call.
  void scan(std::string_view query);

  std::size_t count() const noexcept { return count_; }
  const std::string& spec(std::size_t i) const noexcept { return specs_[i]; }

 private:
  void collect_from(std::string_view text);

  std::vector<std::string> specs_;  // pool; first count_ are live
  std::size_t count_ = 0;
  std::string decoded_;
  http::Url url_scratch_;
};

/// Convenience wrapper over EmbeddedUrlScanner (tests, cold callers).
std::vector<std::string> extract_embedded_urls(const std::string& query);

}  // namespace adscope::core
