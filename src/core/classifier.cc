#include "core/classifier.h"

#include "html/resource_extractor.h"
#include "util/hash.h"
#include "util/strings.h"

namespace adscope::core {

const PageContext::Info& PageContext::lookup(const std::string& page) {
  if (!valid_ || info_.page != page) {
    info_.page.assign(page);
    util::to_lower_into(page, info_.page_lower);
    info_.page_host.clear();
    if (!page.empty() && http::Url::parse_into(page, url_scratch_)) {
      info_.page_host.assign(url_scratch_.host());
    }
    valid_ = true;
  }
  return info_;
}

TraceClassifier::TraceClassifier(const adblock::FilterEngine& engine,
                                 ClassifierOptions options)
    : engine_(engine),
      options_(options),
      normalizer_(engine, !options.naive_query_normalization) {
  if (options_.use_payloads) {
    for (std::size_t i = 0; i < engine.list_count(); ++i) {
      elemhide_.add_list(engine.list(static_cast<adblock::ListId>(i)));
    }
  }
}

void TraceClassifier::analyze_payload(UserState& user,
                                      const analyzer::WebObject& object,
                                      const std::string& page) {
  const auto structure =
      html::extract_structure(object.payload, object.url);
  for (const auto& resource : structure.resources) {
    user.refmap.note_object(resource.url, page);
    const char code = static_cast<char>('0' + static_cast<int>(resource.type));
    user.type_hints.put(resource.url, std::string_view(&code, 1));
  }
  // Text blocks whose classes/ids the element-hiding rules target are
  // the "hidden ads" of §2/§10: embedded in the HTML, never requested.
  const auto selectors = elemhide_.selectors_for(object.url.host());
  for (const auto& block : structure.text_blocks) {
    for (const auto selector : selectors) {
      if (adblock::selector_matches_block(selector, block.classes,
                                          block.id)) {
        ++counters_.hidden_text_ads;
        break;
      }
    }
  }
}

TraceClassifier::UserState& TraceClassifier::user_state(
    const analyzer::WebObject& object) {
  const auto key = user_key(object.client_ip, object.user_agent);
  if (const auto* slot = user_slots_.find(key)) return users_[*slot];

  while (user_slots_.size() >= options_.max_users && !user_order_.empty()) {
    const auto victim = user_order_.front();
    user_order_.pop_front();
    if (const auto* slot = user_slots_.find(victim)) {
      flush_user(users_[*slot]);
      free_users_.push_back(*slot);
      user_slots_.erase(victim);
    }
  }
  user_order_.push_back(key);
  UserState fresh(options_.per_user_url_capacity, key);
  auto slot = static_cast<std::uint32_t>(users_.size());
  if (free_users_.empty()) {
    users_.push_back(std::move(fresh));
  } else {
    slot = free_users_.back();
    free_users_.pop_back();
    users_[slot] = std::move(fresh);
  }
  user_slots_[key] = slot;
  return users_[slot];
}

void TraceClassifier::classify_and_emit(const analyzer::WebObject& object,
                                        std::uint64_t user_key,
                                        const std::string& page,
                                        http::RequestType type,
                                        bool from_extension) {
  const PageContext::Info& page_info = page_ctx_.lookup(page);
  adblock::Request& request = scratch_.request;
  if (options_.query_normalization) {
    normalizer_.normalize(object.url).spec_to(request.url);
  } else {
    object.url.spec_to(request.url);
  }
  util::to_lower_into(request.url, request.url_lower);
  // The engine reads the host and page fields as views of the object
  // and the page memo; only the URL needs scratch storage.
  adblock::RequestView view;
  view.url = request.url;
  view.url_lower = request.url_lower;
  view.host = object.url.host();
  view.page_host = page_info.page_host;
  view.page_url_lower = page_info.page_lower;
  view.type = type;

  const ClassifiedObject out{
      .object = object,
      .user_key = user_key,
      .type = type,
      .type_from_extension = from_extension,
      .page_url = page,
      .page_host = page_info.page_host,
      .verdict = engine_.classify(
          view, scratch_.tokens.tokenize(request.url_lower))};
  if (callback_) callback_(out);
}

void TraceClassifier::expire_pending(UserState& user) {
  while (!user.expiry_empty() &&
         user.expiry_front().deadline <= user.counter) {
    const auto target_hash = user.expiry_front().target_hash;
    user.expiry_pop();
    const auto slot = user.find_pending_by_hash(target_hash);
    if (slot == kNoSlot) continue;  // already patched
    PendingRedirect& held = user.pending[slot];
    // Never typed by a consequent request: fall back to its own headers.
    const auto inference = infer_type(held.object, /*is_own_page=*/false);
    classify_and_emit(held.object, user.key, held.page, inference.type,
                      inference.from_extension);
    ++counters_.redirects_expired;
    user.release_pending(slot);
  }
}

void TraceClassifier::flush_user(UserState& user) {
  user.counter += options_.redirect_window + 1;
  expire_pending(user);
}

void TraceClassifier::flush() {
  for (auto& user : users_) flush_user(user);
}

void TraceClassifier::process(const analyzer::WebObject& object) {
  ++counters_.processed;
  UserState& user = user_state(object);
  ++user.counter;
  expire_pending(user);

  // The spec is hashed once, here, for every map and pending lookup below.
  object.url.spec_to(url_spec_);
  const std::string& url_spec = url_spec_;
  const auto url_hash = util::block_hash(url_spec);

  // --- 1. page attribution -------------------------------------------
  // page_ is copied out of the refmap (not borrowed): the map mutates
  // again below while the page spec is still needed.
  std::string& page = page_;
  page.clear();
  if (!object.referer.empty()) {
    if (http::Url::parse_into(object.referer, ref_url_)) {
      ref_url_.spec_to(ref_spec_);
      if (const std::string* mapped = user.refmap.page_of(ref_spec_)) {
        page.assign(*mapped);
      } else {
        page.assign(ref_spec_);
      }
    }
  }
  if (page.empty() && options_.redirect_patching) {
    user.refmap.take_redirect_page_into(url_hash, url_spec, page);
  }
  if (page.empty() && options_.embedded_urls) {
    if (const std::string* embedded =
            user.refmap.embedded_page(url_hash, url_spec)) {
      page.assign(*embedded);
    }
  }

  // --- 2. content-type inference --------------------------------------
  const bool is_own_page = page.empty() || page == url_spec;
  auto inference = infer_type(object, is_own_page);
  if (options_.use_payloads) {
    // Structure recovered from a parent document overrides header-based
    // inference: this is the DOM knowledge Adblock Plus actually has.
    if (user.type_hints.take_into(url_hash, url_spec, hint_)) {
      inference.type = static_cast<http::RequestType>(hint_[0] - '0');
      inference.from_extension = false;
      ++counters_.payload_type_hints_used;
    }
  }
  if (page.empty() && inference.type == http::RequestType::kDocument) {
    page.assign(url_spec);  // starts a new page
  }

  // Future requests that cite this URL as their referer belong to this
  // object's page (documents root their own page).
  const std::string& effective_page = page.empty() ? url_spec : page;
  user.refmap.note_object(
      url_hash, url_spec,
      inference.type == http::RequestType::kDocument ? url_spec
                                                     : effective_page);

  // --- 3. structural side information ----------------------------------
  if (options_.use_payloads && !object.payload.empty() &&
      (inference.type == http::RequestType::kDocument ||
       inference.type == http::RequestType::kSubdocument)) {
    analyze_payload(user, object, effective_page);
  }
  if (options_.embedded_urls && !object.url.query().empty()) {
    embedded_scanner_.scan(object.url.query());
    for (std::size_t i = 0; i < embedded_scanner_.count(); ++i) {
      user.refmap.note_embedded(embedded_scanner_.spec(i), effective_page);
    }
  }

  // A held redirect source whose target just arrived inherits this
  // object's type (§3.1: type the redirect by its consequent request).
  if (options_.redirect_patching) {
    const auto slot = user.find_pending(url_hash, url_spec);
    if (slot != kNoSlot) {
      PendingRedirect& held = user.pending[slot];
      classify_and_emit(held.object, user.key, held.page, inference.type,
                        inference.from_extension);
      ++counters_.redirects_patched;
      user.release_pending(slot);
    }
  }

  // --- 4. classify (or hold redirects for type patching) ---------------
  if (object.is_redirect() && options_.redirect_patching) {
    object.location.spec_to(target_spec_);
    const auto target_hash = util::block_hash(target_spec_);
    user.refmap.note_redirect(target_hash, target_spec_, effective_page);
    auto slot = user.find_pending(target_hash, target_spec_);
    if (slot == kNoSlot) slot = user.acquire_pending();
    PendingRedirect& held = user.pending[slot];
    held.object = object;
    held.page.assign(page);
    held.target.assign(target_spec_);
    held.target_hash = target_hash;
    held.deadline = user.counter + options_.redirect_window;
    held.live = true;
    user.expiry_push(held.deadline, target_hash);
    return;
  }

  classify_and_emit(object, user.key, page, inference.type,
                    inference.from_extension);
}

}  // namespace adscope::core
