// FilterEngine — the libadblockplus-equivalent classification core.
//
// Holds an ordered set of filter lists and answers, for each request:
// is it a match, which list triggered, and is it whitelisted — the exact
// result triple the paper extracts from libadblockplus (Figure 1).
//
// Semantics follow Adblock Plus: a request is *blocked* when a blocking
// rule matches and no exception rule does; an exception match (from any
// list — in practice the acceptable-ads whitelist) marks the request
// *whitelisted*, remembering the blocking rule it overrode so analyses
// like §7.3 ("would this have been blocked otherwise?") can be answered.
// "$document" exceptions whitelist every request of a matching page.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "adblock/filter.h"
#include "adblock/filter_list.h"
#include "adblock/token_index.h"

namespace adscope::adblock {

using ListId = int;
constexpr ListId kNoList = -1;

enum class Decision : std::uint8_t {
  kNoMatch,
  kBlocked,
  kWhitelisted,
};

std::string_view to_string(Decision decision) noexcept;

/// Result of classifying one request.
struct Classification {
  Decision decision = Decision::kNoMatch;
  ListId list = kNoList;            // list that decided (block or whitelist)
  ListKind list_kind = ListKind::kCustom;
  const Filter* filter = nullptr;   // rule that decided
  ListId blocked_by_list = kNoList;  // when whitelisted: overridden rule
  ListKind blocked_by_kind = ListKind::kCustom;
  const Filter* blocked_by = nullptr;

  /// The paper's "ad request": blacklisted by any blocking list, or
  /// whitelisted by the non-intrusive-ads list. Exception rules *inside*
  /// a blocking list protect non-ad resources and do not count.
  bool is_ad() const noexcept {
    return decision == Decision::kBlocked ||
           (decision == Decision::kWhitelisted &&
            list_kind == ListKind::kAcceptableAds);
  }

  /// Whitelisted requests that a blacklist would otherwise have caught.
  bool whitelist_saved_it() const noexcept {
    return decision == Decision::kWhitelisted && blocked_by != nullptr;
  }

  /// Kind of the blocking list that (would have) caught the request.
  ListKind effective_block_kind() const noexcept {
    return decision == Decision::kBlocked ? list_kind : blocked_by_kind;
  }
};

class FilterEngine {
 public:
  FilterEngine() = default;

  // Lists are consulted in insertion order; insert EasyList before
  // EasyPrivacy to reproduce the paper's attribution priority.
  ListId add_list(FilterList list);

  void set_enabled(ListId id, bool enabled);
  bool enabled(ListId id) const;

  const FilterList& list(ListId id) const;
  std::size_t list_count() const noexcept { return slots_.size(); }

  /// Find the first list of a given kind, or kNoList.
  ListId find_list(ListKind kind) const noexcept;

  /// Classify a request. The convenience overload tokenizes into a stack
  /// scratch; the hot-path overload takes pre-tokenized URL tokens (from
  /// a caller-owned TokenScratch) and performs no heap allocation for
  /// non-regex filter lists.
  Classification classify(const Request& request) const;
  Classification classify(const RequestView& request,
                          std::span<const std::uint64_t> tokens) const;

  /// True when `literal` (lower-case) occurs in the body of any loaded
  /// rule. The query normalizer (§3.1 "Base URL") uses this to avoid
  /// rewriting query fields that filters key on.
  bool pattern_contains_literal(std::string_view literal_lower) const;

  /// Number of URL filters across enabled lists (for stats/benches).
  std::size_t active_filter_count() const noexcept;

 private:
  struct Slot {
    FilterList list;
    TokenIndex blocking;
    TokenIndex exceptions;
    // Exceptions carrying $document whitelist whole pages; they are few
    // and matched against the page URL, so a flat vector is right.
    std::vector<const Filter*> document_exceptions;
    bool enabled = true;
  };

  const Filter* match_blocking(const Slot& slot,
                               std::span<const std::uint64_t> tokens,
                               const RequestView& request) const;
  const Filter* match_exception(const Slot& slot,
                                std::span<const std::uint64_t> tokens,
                                const RequestView& request) const;

  std::vector<Slot> slots_;
};

/// Build a Request from URL pieces (convenience for callers/tests).
Request make_request(std::string_view url, std::string_view page_url,
                     http::RequestType type);

/// Allocation-reusing variant: fills `out` in place, reusing its string
/// capacity. `out` may alias a previously filled Request.
void make_request_into(std::string_view url, std::string_view page_url,
                       http::RequestType type, Request& out);

/// Caller-owned per-thread scratch for the zero-allocation classify path:
/// a reusable Request (string capacity persists across calls) and the
/// token buffer.
struct RequestScratch {
  Request request;
  TokenScratch tokens;
};

}  // namespace adscope::adblock
