// Keyword index over filters — the standard AdBlock matching optimization.
//
// Each filter is registered under one of its index keywords (maximal
// [a-z0-9%] runs of length >= 3 that must appear as complete tokens in any
// matching URL). A classification query tokenizes the URL once and only
// evaluates filters whose keyword occurs among the URL's tokens, plus the
// small set of filters that have no usable keyword.
//
// Layout: add() accumulates into an ordinary hash map; finalize() (called
// once by FilterEngine::add_list) compacts it into an open-addressing
// probe table over one contiguous `const Filter*` arena, so a token
// lookup costs a single cache line of probing plus a linear run of
// candidate pointers — no per-bucket node chasing on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adblock/filter.h"
#include "adblock/teddy.h"
#include "util/hash.h"

namespace adscope::adblock {

/// FNV hashes of the maximal keyword runs of a lower-case URL (length >= 3,
/// string edges count as boundaries). Duplicate tokens are removed
/// (first-occurrence order preserved): scanning the same bucket twice can
/// never change a match result, it only re-evaluates the same filters.
/// Run boundaries come from the dispatched SIMD keyword classifier;
/// dedup is the same inline strategy TokenScratch uses (not a per-token
/// std::find over the grown vector).
std::vector<std::uint64_t> url_token_hashes(std::string_view url_lower);

/// Reference tokenizer: the original byte-at-a-time walk with linear
/// dedup. Kept as the differential oracle for the SIMD run scanner
/// (tests/test_simd.cpp fuzzes equality); never on the hot path.
std::vector<std::uint64_t> url_token_hashes_oracle(
    std::string_view url_lower);

/// Reusable tokenization buffer: the fixed array serves every realistic
/// URL without touching the heap; pathological URLs (> kInlineCapacity
/// distinct tokens) spill into an owned vector that is retained across
/// calls, so even that path amortizes to zero allocations.
class TokenScratch {
 public:
  static constexpr std::size_t kInlineCapacity = 96;

  /// Tokenize `url_lower` as url_token_hashes() does (dedup included)
  /// into the internal buffer. The span stays valid until the next call.
  std::span<const std::uint64_t> tokenize(std::string_view url_lower);

 private:
  // Deliberately not value-initialized: only the first `count` entries of
  // a tokenize() result are ever read, and zeroing 96 slots per scratch
  // shows up in the classify profile.
  std::array<std::uint64_t, kInlineCapacity> inline_;
  std::vector<std::uint64_t> overflow_;
};

class TokenIndex {
 public:
  /// Register a filter. The pointer must stay valid for the index's
  /// lifetime (filters live in their FilterList's vector). Only legal
  /// before finalize().
  void add(const Filter* filter);

  /// Build the flat probe table. Idempotent; add() afterwards throws.
  /// scan() works either way (pre-finalize scans the build map) so
  /// incremental uses keep functioning, just without the flat layout.
  /// finalize() also compiles this index's own Teddy prefilter over its
  /// filters' lead literals. Deliberately per-index, not engine-global:
  /// 8 buckets stay selective over one index's literal set (the small
  /// exception indexes especially), where a shared mask set saturates
  /// and admits everything.
  void finalize();

  /// Invoke `fn(const Filter&)` for every candidate whose keyword appears
  /// in `tokens`, then for every keyword-less filter. `fn` returns true to
  /// stop the scan early; the function returns whether it stopped.
  template <typename Fn>
  bool scan(std::span<const std::uint64_t> tokens, Fn&& fn) const {
    return scan_impl(tokens, std::string_view{}, false, std::forward<Fn>(fn));
  }

  /// Prefiltered scan: identical candidate semantics, but `url_lower`
  /// arms the Teddy shotgun prefilter — a candidate whose lead literal
  /// provably does not occur in the URL is skipped without calling `fn`.
  /// The URL scan itself is lazy: it runs at most once per call, and
  /// only when a prefilterable candidate is actually reached.
  template <typename Fn>
  bool scan(std::span<const std::uint64_t> tokens, std::string_view url_lower,
            Fn&& fn) const {
    return scan_impl(tokens, url_lower,
                     finalized_ && prefilter_enabled() && !teddy_.empty(),
                     std::forward<Fn>(fn));
  }

  /// Global prefilter kill switch (on by default); the prefilter
  /// identity test toggles it at runtime. Decisions are unchanged either
  /// way — only the probe count moves.
  static void set_prefilter_enabled(bool enabled) noexcept;
  static bool prefilter_enabled() noexcept;

  bool finalized() const noexcept { return finalized_; }
  std::size_t indexed_count() const noexcept { return indexed_; }
  std::size_t unindexed_count() const noexcept { return unindexed_.size(); }
  std::size_t bucket_count() const noexcept {
    return finalized_ ? keys_ : building_.size();
  }
  /// Probe-table slots (0 before finalize) — capacity diagnostics.
  std::size_t table_slots() const noexcept { return table_.size(); }

  /// Bytes held by the finalized flat layout (probe table + candidate
  /// arena + bloom words + teddy bucket bits); 0 before finalize().
  std::size_t approx_memory_bytes() const noexcept {
    return table_.size() * sizeof(Probe) +
           arena_.size() * sizeof(const Filter*) +
           bloom_.size() * sizeof(std::uint64_t) +
           unindexed_.size() * sizeof(const Filter*) +
           arena_bits_.size() + unindexed_bits_.size();
  }

 private:
  struct Probe {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;  // 0 = empty slot (real buckets hold >= 1)
  };

  template <typename Fn>
  bool scan_impl(std::span<const std::uint64_t> tokens,
                 std::string_view url_lower, bool use_teddy, Fn&& fn) const {
    // Lazy Teddy mask: computed on the first candidate that carries a
    // bucket bit, then shared by every later admission test this call.
    std::uint8_t seen = 0;
    bool seen_valid = false;
    const auto admitted = [&](std::uint8_t bits) {
      if (!use_teddy || bits == 0) return true;
      if (!seen_valid) {
        seen = teddy_.scan(url_lower);
        seen_valid = true;
      }
      return (bits & seen) != 0;
    };
    if (finalized_) {
      if (!table_.empty()) {
        for (const auto token : tokens) {
          // One-load bloom rejection: most URL tokens hit no bucket in
          // most indexes, and the filter word is hot in cache while the
          // probe table is not.
          if ((bloom_[(token >> 6) & bloom_mask_] &
               (std::uint64_t{1} << (token & 63))) == 0) {
            continue;
          }
          auto slot = token & mask_;
          while (table_[slot].count != 0) {
            if (table_[slot].key == token) {
              const auto begin = table_[slot].begin;
              const auto end = begin + table_[slot].count;
              for (auto i = begin; i < end; ++i) {
                if (admitted(arena_bits_[i]) && fn(*arena_[i])) return true;
              }
              break;
            }
            slot = (slot + 1) & mask_;
          }
        }
      }
      for (std::size_t i = 0; i < unindexed_.size(); ++i) {
        if (admitted(unindexed_bits_[i]) && fn(*unindexed_[i])) return true;
      }
      return false;
    }
    // Pre-finalize path: the build map, no prefilter (teddy bits are
    // compiled by finalize()).
    for (const auto token : tokens) {
      const auto it = building_.find(token);
      if (it == building_.end()) continue;
      for (const Filter* filter : it->second) {
        if (fn(*filter)) return true;
      }
    }
    for (const Filter* filter : unindexed_) {
      if (fn(*filter)) return true;
    }
    return false;
  }

  // Build phase.
  std::unordered_map<std::uint64_t, std::vector<const Filter*>> building_;
  // Finalized phase: open addressing (linear probing, <= 50% load) over
  // one contiguous candidate arena, fronted by a bloom filter sized to
  // ~4 bits per table slot (word index from the hash's upper bits, bit
  // index from its low 6 — independent enough for a rejection test).
  std::vector<Probe> table_;
  std::vector<const Filter*> arena_;
  std::vector<std::uint64_t> bloom_;
  std::uint64_t mask_ = 0;
  std::uint64_t bloom_mask_ = 0;
  std::size_t keys_ = 0;

  std::vector<const Filter*> unindexed_;
  std::size_t indexed_ = 0;
  bool finalized_ = false;

  // Teddy shotgun prefilter, compiled by finalize(): per-candidate
  // bucket bits aligned with arena_ / unindexed_ (0 = always probe).
  TeddyPrefilter teddy_;
  std::vector<std::uint8_t> arena_bits_;
  std::vector<std::uint8_t> unindexed_bits_;

  static std::atomic<bool> prefilter_enabled_;
};

}  // namespace adscope::adblock
