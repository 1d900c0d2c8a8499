#include "adblock/token_index.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/simd.h"
#include "util/strings.h"

namespace adscope::adblock {

namespace {

/// Reference walker: byte-at-a-time boundary test with the FNV hash
/// folded into the same pass. The differential oracle for the SIMD run
/// scanner below.
template <typename Emit>
void for_each_token_scalar(std::string_view url_lower, Emit&& emit) {
  const char* p = url_lower.data();
  const char* const end = p + url_lower.size();
  while (p != end) {
    if (!is_keyword_char(*p)) {
      ++p;
      continue;
    }
    const char* const run = p;
    std::uint64_t hash = util::kFnvOffset;
    do {
      hash ^= static_cast<std::uint8_t>(*p);
      hash *= util::kFnvPrime;
      ++p;
    } while (p != end && is_keyword_char(*p));
    if (p - run >= 3) emit(hash);
  }
}

/// SIMD run scanner: classify a span of the URL into a keyword bitset
/// with the dispatched kernel (32/16 bytes per instruction on
/// AVX2/SSE2), then walk runs with ctz/shift arithmetic — the per-byte
/// work that remains is the FNV multiply over actual keyword bytes,
/// which the hash demands anyway. Emits exactly what
/// for_each_token_scalar emits, for every ADSCOPE_SIMD level (the
/// scalar kernel produces the same bitset).
template <typename Emit>
void for_each_token(std::string_view url_lower, Emit&& emit) {
  const char* const data = url_lower.data();
  const std::size_t n = url_lower.size();
  constexpr std::size_t kSpan = 512;  // bitset span; URLs rarely need two
  std::uint64_t bits[kSpan / 64];

  std::uint64_t hash = util::kFnvOffset;
  std::size_t run_start = 0;
  bool in_run = false;
  for (std::size_t base = 0; base < n; base += kSpan) {
    const std::size_t len = std::min(kSpan, n - base);
    util::simd::keyword_bits(data + base, len, bits);
    const std::size_t words = (len + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = bits[w];  // tail bits beyond len are 0
      const std::size_t word_base = base + w * 64;
      std::size_t pos = 0;
      while (pos < 64) {
        if (!in_run) {
          const std::uint64_t rest = word >> pos;
          if (rest == 0) break;
          pos += static_cast<std::size_t>(std::countr_zero(rest));
          run_start = word_base + pos;
          hash = util::kFnvOffset;
          in_run = true;
        }
        const std::size_t run_len = static_cast<std::size_t>(
            std::countr_one(word >> pos));  // 64 - pos when all ones
        for (std::size_t k = 0; k < run_len; ++k) {
          hash ^= static_cast<std::uint8_t>(data[word_base + pos + k]);
          hash *= util::kFnvPrime;
        }
        pos += run_len;
        if (pos < 64) {
          // The next bit is 0: the run ends here.
          if (word_base + pos - run_start >= 3) emit(hash);
          in_run = false;
        }
        // pos == 64: the run may continue into the next word (or span).
      }
    }
  }
  if (in_run && n - run_start >= 3) emit(hash);
}

}  // namespace

std::vector<std::uint64_t> url_token_hashes(std::string_view url_lower) {
  // Same inline-dedup strategy as TokenScratch (first occurrence wins),
  // materialized into an owned vector — not the old std::find-per-token
  // O(n^2) walk over the growing output.
  TokenScratch scratch;
  const auto tokens = scratch.tokenize(url_lower);
  return {tokens.begin(), tokens.end()};
}

std::vector<std::uint64_t> url_token_hashes_oracle(
    std::string_view url_lower) {
  std::vector<std::uint64_t> tokens;
  for_each_token_scalar(url_lower, [&tokens](std::uint64_t hash) {
    if (std::find(tokens.begin(), tokens.end(), hash) == tokens.end()) {
      tokens.push_back(hash);
    }
  });
  return tokens;
}

std::span<const std::uint64_t> TokenScratch::tokenize(
    std::string_view url_lower) {
  std::size_t count = 0;
  bool spilled = false;
  for_each_token(url_lower, [&](std::uint64_t hash) {
    if (!spilled) {
      if (util::simd::contains_u64(inline_.data(), count, hash)) return;
      if (count < kInlineCapacity) {
        inline_[count++] = hash;
        return;
      }
      // Pathological URL: continue in the retained overflow vector.
      overflow_.assign(inline_.begin(), inline_.end());
      spilled = true;
    }
    if (!util::simd::contains_u64(overflow_.data(), overflow_.size(), hash)) {
      overflow_.push_back(hash);
    }
  });
  if (spilled) return {overflow_.data(), overflow_.size()};
  return {inline_.data(), count};
}

std::atomic<bool> TokenIndex::prefilter_enabled_{true};

void TokenIndex::set_prefilter_enabled(bool enabled) noexcept {
  prefilter_enabled_.store(enabled, std::memory_order_relaxed);
}

bool TokenIndex::prefilter_enabled() noexcept {
  return prefilter_enabled_.load(std::memory_order_relaxed);
}

void TokenIndex::add(const Filter* filter) {
  if (finalized_) {
    throw std::logic_error("TokenIndex::add after finalize()");
  }
  const auto keywords = filter->index_keywords();
  if (keywords.empty()) {
    unindexed_.push_back(filter);
    return;
  }
  // Place the filter in the currently least-crowded bucket among its
  // keywords (ties: longer keyword first — more selective).
  const std::string* best = nullptr;
  std::size_t best_load = 0;
  for (const auto& kw : keywords) {
    const auto it = building_.find(util::fnv1a(kw));
    const std::size_t load = it == building_.end() ? 0 : it->second.size();
    if (best == nullptr || load < best_load ||
        (load == best_load && kw.size() > best->size())) {
      best = &kw;
      best_load = load;
    }
  }
  building_[util::fnv1a(*best)].push_back(filter);
  ++indexed_;
}

void TokenIndex::finalize() {
  if (finalized_) return;
  finalized_ = true;
  keys_ = building_.size();
  const auto teddy_bits = [this](const Filter& filter) {
    return teddy_.add(filter);
  };

  // Teddy bucket bits for the filters that are scanned unconditionally.
  unindexed_bits_.reserve(unindexed_.size());
  for (const Filter* filter : unindexed_) {
    unindexed_bits_.push_back(teddy_bits(*filter));
  }

  if (keys_ == 0) return;

  // Deterministic layout: keys in ascending order (unordered_map order is
  // platform-defined); per-key candidate order stays insertion order, so
  // scan results are bit-identical to the build-map path.
  std::vector<std::uint64_t> keys;
  keys.reserve(keys_);
  for (const auto& [key, filters] : building_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  std::size_t slots = 1;
  while (slots < keys_ * 2) slots <<= 1;  // <= 50% load factor
  table_.assign(slots, Probe{});
  mask_ = slots - 1;
  // ~4 bloom bits per slot (min one 64-bit word).
  const std::size_t bloom_words = std::max<std::size_t>(slots / 16, 1);
  bloom_.assign(bloom_words, 0);
  bloom_mask_ = bloom_words - 1;
  for (const auto& [key, filters] : building_) {
    bloom_[(key >> 6) & bloom_mask_] |= std::uint64_t{1} << (key & 63);
  }
  arena_.reserve(indexed_);
  arena_bits_.reserve(indexed_);
  for (const auto key : keys) {
    auto& filters = building_[key];
    Probe probe;
    probe.key = key;
    probe.begin = static_cast<std::uint32_t>(arena_.size());
    probe.count = static_cast<std::uint32_t>(filters.size());
    arena_.insert(arena_.end(), filters.begin(), filters.end());
    for (const Filter* filter : filters) {
      arena_bits_.push_back(teddy_bits(*filter));
    }
    auto slot = key & mask_;
    while (table_[slot].count != 0) slot = (slot + 1) & mask_;
    table_[slot] = probe;
  }
  building_.clear();
}

}  // namespace adscope::adblock
