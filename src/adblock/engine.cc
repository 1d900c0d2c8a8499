#include "adblock/engine.h"

#include <stdexcept>

#include "http/url.h"
#include "util/strings.h"

namespace adscope::adblock {

std::string_view to_string(Decision decision) noexcept {
  switch (decision) {
    case Decision::kNoMatch: return "no-match";
    case Decision::kBlocked: return "blocked";
    case Decision::kWhitelisted: return "whitelisted";
  }
  return "no-match";
}

ListId FilterEngine::add_list(FilterList list) {
  Slot slot;
  slot.list = std::move(list);
  for (const Filter& filter : slot.list.filters()) {
    if (filter.is_exception()) {
      if (filter.whitelists_document()) {
        slot.document_exceptions.push_back(&filter);
      }
      slot.exceptions.add(&filter);
    } else {
      slot.blocking.add(&filter);
    }
  }
  slot.blocking.finalize();
  slot.exceptions.finalize();
  slots_.push_back(std::move(slot));
  return static_cast<ListId>(slots_.size() - 1);
}

void FilterEngine::set_enabled(ListId id, bool enabled) {
  slots_.at(static_cast<std::size_t>(id)).enabled = enabled;
}

bool FilterEngine::enabled(ListId id) const {
  return slots_.at(static_cast<std::size_t>(id)).enabled;
}

const FilterList& FilterEngine::list(ListId id) const {
  return slots_.at(static_cast<std::size_t>(id)).list;
}

ListId FilterEngine::find_list(ListKind kind) const noexcept {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].list.kind() == kind) return static_cast<ListId>(i);
  }
  return kNoList;
}

const Filter* FilterEngine::match_blocking(
    const Slot& slot, std::span<const std::uint64_t> tokens,
    const RequestView& request) const {
  const Filter* hit = nullptr;
  slot.blocking.scan(tokens, request.url_lower, [&](const Filter& filter) {
    if (filter.matches(request)) {
      hit = &filter;
      return true;
    }
    return false;
  });
  return hit;
}

const Filter* FilterEngine::match_exception(
    const Slot& slot, std::span<const std::uint64_t> tokens,
    const RequestView& request) const {
  const Filter* hit = nullptr;
  slot.exceptions.scan(tokens, request.url_lower, [&](const Filter& filter) {
    if (filter.matches(request)) {
      hit = &filter;
      return true;
    }
    return false;
  });
  if (hit != nullptr) return hit;

  // "$document" exceptions whitelist the whole page: test them against
  // the page URL (as a document request). The borrowed view keeps this
  // probe free of string copies.
  if (!request.page_url_lower.empty() && !slot.document_exceptions.empty()) {
    RequestView page_request;
    page_request.url = request.page_url_lower;
    page_request.url_lower = request.page_url_lower;
    page_request.host = request.page_host;
    page_request.page_host = request.page_host;
    page_request.type = http::RequestType::kDocument;
    for (const Filter* filter : slot.document_exceptions) {
      if (filter->matches(page_request)) return filter;
    }
  }
  return nullptr;
}

Classification FilterEngine::classify(const Request& request) const {
  TokenScratch scratch;
  return classify(RequestView(request), scratch.tokenize(request.url_lower));
}

Classification FilterEngine::classify(
    const RequestView& request, std::span<const std::uint64_t> tokens) const {
  Classification result;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].enabled) continue;
    if (const Filter* hit = match_blocking(slots_[i], tokens, request)) {
      result.blocked_by = hit;
      result.blocked_by_list = static_cast<ListId>(i);
      result.blocked_by_kind = slots_[i].list.kind();
      break;  // lists are priority-ordered; first blocking hit attributes
    }
  }

  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].enabled) continue;
    if (const Filter* hit = match_exception(slots_[i], tokens, request)) {
      result.decision = Decision::kWhitelisted;
      result.list = static_cast<ListId>(i);
      result.list_kind = slots_[i].list.kind();
      result.filter = hit;
      return result;
    }
  }

  if (result.blocked_by != nullptr) {
    result.decision = Decision::kBlocked;
    result.list = result.blocked_by_list;
    result.list_kind = result.blocked_by_kind;
    result.filter = result.blocked_by;
    // A plain block is not an override; keep blocked_by for symmetry but
    // clear the "saved by whitelist" reading.
  }
  return result;
}

bool FilterEngine::pattern_contains_literal(
    std::string_view literal_lower) const {
  for (const auto& slot : slots_) {
    if (!slot.enabled) continue;
    for (const Filter& filter : slot.list.filters()) {
      if (filter.pattern().find(literal_lower) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

std::size_t FilterEngine::active_filter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot.enabled) n += slot.list.filters().size();
  }
  return n;
}

Request make_request(std::string_view url, std::string_view page_url,
                     http::RequestType type) {
  Request request;
  make_request_into(url, page_url, type, request);
  return request;
}

void make_request_into(std::string_view url, std::string_view page_url,
                       http::RequestType type, Request& out) {
  out.url.assign(util::trim(url));
  util::to_lower_into(out.url, out.url_lower);
  out.type = type;
  out.host.clear();
  if (const auto parsed = http::Url::parse(out.url)) {
    out.host = parsed->host();
  }
  out.page_url_lower.clear();
  out.page_host.clear();
  if (!page_url.empty()) {
    util::to_lower_into(util::trim(page_url), out.page_url_lower);
    if (const auto parsed = http::Url::parse(page_url)) {
      out.page_host = parsed->host();
    }
  }
}

}  // namespace adscope::adblock
