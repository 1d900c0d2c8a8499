// Minimal URL model for HTTP-header trace analysis.
//
// We deliberately implement only the subset of RFC 3986 that occurs in
// HTTP request lines, Referer/Location headers and AdBlock filter rules:
// scheme://host[:port]/path[?query][#fragment]. Scheme-relative ("//h/p")
// and origin-relative ("/p") references are resolved against a base URL,
// which is what the referrer-map reconstruction needs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace adscope::http {

class Url {
 public:
  Url() = default;

  /// Parse an absolute URL. Returns std::nullopt when there is no
  /// recognizable scheme+host. Host is lower-cased; default ports are
  /// normalized away.
  static std::optional<Url> parse(std::string_view raw);

  /// parse() into a caller-owned Url, reusing its string capacity (the
  /// hot-loop variant). On failure returns false with `out` cleared.
  static bool parse_into(std::string_view raw, Url& out);

  /// Build from a Host header plus a request-target ("/path?query").
  /// `https` selects the scheme. This is how transactions captured at the
  /// header level are re-assembled into URLs.
  static Url from_host_and_target(std::string_view host,
                                  std::string_view target,
                                  bool https = false);

  /// from_host_and_target() into a caller-owned Url (capacity reuse).
  /// `out` is empty() when the Host header was unusable.
  static void from_host_and_target_into(std::string_view host,
                                        std::string_view target, bool https,
                                        Url& out);

  /// Resolve `reference` (absolute, scheme-relative, absolute-path or
  /// relative-path) against this URL. Mirrors browser Location handling.
  Url resolve(std::string_view reference) const;

  /// resolve() into a caller-owned Url (capacity reuse). `out` must not
  /// alias this.
  void resolve_into(std::string_view reference, Url& out) const;

  const std::string& scheme() const noexcept { return scheme_; }
  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }
  const std::string& path() const noexcept { return path_; }
  const std::string& query() const noexcept { return query_; }

  bool https() const noexcept { return scheme_ == "https"; }
  bool empty() const noexcept { return host_.empty(); }

  /// "host/path?query" without the scheme — the canonical form AdBlock
  /// filters match against after the "||" anchor.
  std::string host_and_path() const;

  /// Full spelling, e.g. "http://x.example/p?q=1".
  std::string spec() const;

  /// spec() into a caller-owned buffer, reusing its capacity.
  void spec_to(std::string& out) const;

  /// Path extension without the dot, lower-cased ("" when absent).
  std::string extension() const;

  /// Path extension without the dot, original case, viewing into the
  /// path ("" when absent). Callers needing case-folding lower a copy.
  std::string_view extension_view() const noexcept;

  /// Replace the query string (copied; caller keeps its buffer).
  void set_query(std::string_view query) { query_.assign(query); }

  /// Reset to the empty URL, keeping string capacity for reuse.
  void clear() {
    scheme_.clear();
    host_.clear();
    port_ = 0;
    path_.assign(1, '/');  // the fill overload: GCC 12 misreads the
                           // memcpy under assign("/") as -Wrestrict
    query_.clear();
  }

  friend bool operator==(const Url& a, const Url& b) noexcept {
    return a.scheme_ == b.scheme_ && a.host_ == b.host_ &&
           a.port_ == b.port_ && a.path_ == b.path_ && a.query_ == b.query_;
  }

 private:
  std::string scheme_;
  std::string host_;
  std::uint16_t port_ = 0;  // 0 = scheme default
  std::string path_ = "/";
  std::string query_;
};

}  // namespace adscope::http
