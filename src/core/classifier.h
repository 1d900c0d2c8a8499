// TraceClassifier — the paper's ad-classification pipeline (Figure 1).
//
// Streams Bro-extracted WebObjects through:
//   1. per-user referrer-map page reconstruction (§3.1, "Referrer Map"),
//   2. content-type inference with redirect patching — a redirect source
//      is typed after its *consequent* request, held in a small pending
//      window until the target shows up (§3.1, "Content Type"),
//   3. query-string normalization that preserves filter-list literals
//      (§3.1, "Base URL"),
//   4. FilterEngine classification (the libadblockplus call).
//
// Users are keyed by (client IP, User-Agent) following Maier et al. [45]
// for NAT separation. The key is hashed once per record (user_key()),
// carried on every emitted object, and reused by the per-user
// aggregates, so no later stage hashes the User-Agent again. All
// per-user state is bounded; exceeding the user cap evicts the oldest
// user after flushing their pending redirects.
//
// Emission order: held redirect sources are emitted when patched or
// expired, so output order can deviate from capture order by up to the
// redirect window — consumers must not assume strict timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "adblock/element_hiding.h"
#include "adblock/engine.h"
#include "analyzer/http_extractor.h"
#include "core/content_inference.h"
#include "core/flat_agg.h"
#include "core/query_normalizer.h"
#include "core/referrer_map.h"
#include "util/hash.h"

namespace adscope::core {

/// Single-entry memo of the page-derived request fields. Trace objects
/// arrive page-by-page, so the same page URL is re-lowered and re-parsed
/// for nearly every request it triggered; one remembered entry removes
/// that rework without unbounded state.
class PageContext {
 public:
  struct Info {
    std::string page;        // key (page spec, original case)
    std::string page_lower;  // to_lower(page)
    std::string page_host;   // Url::parse(page).host() or ""
  };

  /// Fields for `page`; recomputed only when the page changed.
  const Info& lookup(const std::string& page);

 private:
  Info info_;
  http::Url url_scratch_;
  bool valid_ = false;
};

/// Key of one end user: (client IP, User-Agent), as the classifier and
/// the per-user aggregates (UserIndex, PageSegmenter) share it.
inline std::uint64_t user_key(netdb::IpV4 ip,
                              std::string_view user_agent) noexcept {
  return util::hash_combine(util::fnv1a_u64(ip), util::block_hash(user_agent));
}

/// One classified object, as the classifier hands it to its callback.
/// A view: `object`, `page_url` and `page_host` borrow the classifier's
/// storage and are valid only inside the callback. A consumer that
/// keeps anything past the callback must copy it.
struct ClassifiedObject {
  const analyzer::WebObject& object;
  std::uint64_t user_key = 0;  // user_key(object.client_ip, .user_agent)
  http::RequestType type = http::RequestType::kOther;
  bool type_from_extension = false;
  std::string_view page_url;   // reconstructed page spec ("" when unknown)
  std::string_view page_host;  // host of page_url
  adblock::Classification verdict;
};

struct ClassifierOptions {
  // Ablation switches (DESIGN.md §4.2) — all on by default.
  bool redirect_patching = true;
  bool embedded_urls = true;
  bool query_normalization = true;
  /// Rewrite every dynamic query value, ignoring filter literals
  /// (ablation baseline; breaks value-keyed exception rules).
  bool naive_query_normalization = false;
  /// §10 payload mode: when document objects carry their HTML body,
  /// recover the page structure exactly — embedded-resource types become
  /// ground truth instead of inferences, and text advertisements hidden
  /// in the HTML (never requested, so invisible to header analysis) are
  /// detected via the element-hiding rules.
  bool use_payloads = false;

  std::size_t per_user_url_capacity = 2048;
  std::size_t max_users = 1 << 18;
  // A held redirect source expires after this many subsequent objects
  // from the same user.
  std::uint64_t redirect_window = 32;
};

/// Pipeline throughput/diagnostic counters; mergeable so sharded runs
/// can combine per-worker classifiers into trace-wide totals.
struct ClassifierCounters {
  std::uint64_t processed = 0;
  std::uint64_t redirects_patched = 0;
  std::uint64_t redirects_expired = 0;
  std::uint64_t hidden_text_ads = 0;
  std::uint64_t payload_type_hints_used = 0;

  void merge(const ClassifierCounters& other) noexcept {
    processed += other.processed;
    redirects_patched += other.redirects_patched;
    redirects_expired += other.redirects_expired;
    hidden_text_ads += other.hidden_text_ads;
    payload_type_hints_used += other.payload_type_hints_used;
  }
};

class TraceClassifier {
 public:
  using Callback = std::function<void(const ClassifiedObject&)>;

  TraceClassifier(const adblock::FilterEngine& engine,
                  ClassifierOptions options = {});

  /// The callback receives each ClassifiedObject by reference to a view
  /// that dies when the callback returns (see ClassifiedObject).
  void set_callback(Callback callback) { callback_ = std::move(callback); }

  /// Process one object; may emit zero or more classified objects.
  void process(const analyzer::WebObject& object);

  /// Emit everything still held (end of trace).
  void flush();

  std::uint64_t processed() const noexcept { return counters_.processed; }
  std::uint64_t redirects_patched() const noexcept {
    return counters_.redirects_patched;
  }
  std::uint64_t redirects_expired() const noexcept {
    return counters_.redirects_expired;
  }
  /// Payload mode only: embedded text ads found via element hiding.
  std::uint64_t hidden_text_ads() const noexcept {
    return counters_.hidden_text_ads;
  }
  /// Payload mode only: requests typed from the document structure.
  std::uint64_t payload_type_hints_used() const noexcept {
    return counters_.payload_type_hints_used;
  }
  const ClassifierCounters& counters() const noexcept { return counters_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// A held redirect source waiting for its consequent request. Slots
  /// are pooled per user so re-held redirects reuse string capacity.
  struct PendingRedirect {
    analyzer::WebObject object;
    std::string page;
    std::string target;             // redirect target spec (lookup key)
    std::uint64_t target_hash = 0;  // util::block_hash(target)
    std::uint64_t deadline = 0;
    bool live = false;
  };

  /// Expiry queue entry — POD so the ring never touches the heap once
  /// warm. Keyed by target hash, matching the original deque-of-keys
  /// semantics: whichever pending entry currently holds that target
  /// when the deadline fires is the one emitted.
  struct PendingExpiry {
    std::uint64_t deadline = 0;
    std::uint64_t target_hash = 0;
  };

  struct UserState {
    UserState(std::size_t capacity, std::uint64_t user_key)
        : key(user_key), refmap(capacity), type_hints(capacity) {}
    std::uint64_t key;  // user_key(ip, user agent)
    ReferrerMap refmap;
    // Payload mode: URL -> element type gleaned from the document HTML
    // (single digit encoding of http::RequestType).
    BoundedStringMap type_hints;
    // expire_pending() runs on every process() call, so at most
    // redirect_window + 1 slots are ever live — linear scans are cheap.
    std::vector<PendingRedirect> pending;     // slot pool
    std::vector<std::uint32_t> pending_free;  // recycled slot indices
    std::vector<PendingExpiry> expiry_;       // ring buffer, oldest first
    std::size_t expiry_head_ = 0;
    std::size_t expiry_count_ = 0;
    std::uint64_t counter = 0;

    std::uint32_t find_pending(std::uint64_t hash,
                               std::string_view target) const noexcept {
      for (std::uint32_t i = 0; i < pending.size(); ++i) {
        if (pending[i].live && pending[i].target_hash == hash &&
            pending[i].target == target) {
          return i;
        }
      }
      return kNoSlot;
    }

    /// Expiry-time lookup has only the hash; a 64-bit collision between
    /// two live targets is indistinguishable in practice (same stance
    /// as BoundedStringMap eviction).
    std::uint32_t find_pending_by_hash(std::uint64_t hash) const noexcept {
      for (std::uint32_t i = 0; i < pending.size(); ++i) {
        if (pending[i].live && pending[i].target_hash == hash) return i;
      }
      return kNoSlot;
    }

    std::uint32_t acquire_pending() {
      if (!pending_free.empty()) {
        const auto slot = pending_free.back();
        pending_free.pop_back();
        return slot;
      }
      pending.emplace_back();
      return static_cast<std::uint32_t>(pending.size() - 1);
    }

    void release_pending(std::uint32_t slot) {
      pending[slot].live = false;
      pending_free.push_back(slot);
    }

    bool expiry_empty() const noexcept { return expiry_count_ == 0; }
    const PendingExpiry& expiry_front() const noexcept {
      return expiry_[expiry_head_];
    }
    void expiry_pop() noexcept {
      expiry_head_ = (expiry_head_ + 1) & (expiry_.size() - 1);
      --expiry_count_;
    }
    void expiry_push(std::uint64_t deadline, std::uint64_t target_hash) {
      if (expiry_count_ == expiry_.size()) {
        const std::size_t new_size = expiry_.empty() ? 16 : expiry_.size() * 2;
        std::vector<PendingExpiry> fresh(new_size);
        for (std::size_t i = 0; i < expiry_count_; ++i) {
          fresh[i] = expiry_[(expiry_head_ + i) & (expiry_.size() - 1)];
        }
        expiry_ = std::move(fresh);
        expiry_head_ = 0;
      }
      expiry_[(expiry_head_ + expiry_count_) & (expiry_.size() - 1)] =
          PendingExpiry{deadline, target_hash};
      ++expiry_count_;
    }
  };

  UserState& user_state(const analyzer::WebObject& object);
  void analyze_payload(UserState& user, const analyzer::WebObject& object,
                       const std::string& page);
  void expire_pending(UserState& user);
  void flush_user(UserState& user);
  void classify_and_emit(const analyzer::WebObject& object,
                         std::uint64_t user_key, const std::string& page,
                         http::RequestType type, bool from_extension);

  const adblock::FilterEngine& engine_;
  ClassifierOptions options_;
  QueryNormalizer normalizer_;
  adblock::ElementHidingIndex elemhide_;  // populated in payload mode
  Callback callback_;
  adblock::RequestScratch scratch_;
  PageContext page_ctx_;
  EmbeddedUrlScanner embedded_scanner_;

  // Users live in a slot pool; user_slots_ maps a user key to its slot
  // and user_order_ holds keys in first-seen order for FIFO eviction.
  // Evicted slots are recycled.
  FlatMap<std::uint64_t, std::uint32_t> user_slots_;
  std::vector<UserState> users_;
  std::vector<std::uint32_t> free_users_;
  OrderRing user_order_;
  ClassifierCounters counters_;

  // Per-record scratch (process()/classify_and_emit() reuse capacity).
  std::string url_spec_;
  std::string ref_spec_;
  std::string target_spec_;
  std::string page_;
  std::string hint_;
  http::Url ref_url_;
};

}  // namespace adscope::core
