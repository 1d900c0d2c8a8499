// Deterministic hashing for strings and small keys (std::hash makes no
// cross-platform promise).
//
// fnv1a: byte-serial; the filter engine's token hashes (URL
// tokenization computes them in its character walk) and short keys whose
// values must stay fixed, such as simulator seeds. fnv1a_u64: client
// IPs, for shard routing and the IP half of core::user_key.
// block_hash: word-at-a-time, for the long keys (URLs, user agents) the
// symbol tables, the referrer maps and the User-Agent half of
// core::user_key hash once per record.
#pragma once

#include <cstdint>
#include <string_view>

namespace adscope::util {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t fnv1a_u64(std::uint64_t value,
                                  std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xFFU;
    h *= kFnvPrime;
  }
  return h;
}

/// Combine two hashes (boost-style).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

namespace detail {
/// Little-endian 64-bit load, `n` <= 8 bytes (upper bytes zero). The
/// byte assembly keeps the value platform-independent; compilers fold
/// the full-width case into a single load on little-endian targets.
constexpr std::uint64_t load_le64(const char* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (i * 8);
  }
  return v;
}

/// splitmix64 finalizer — full-avalanche mix of a 64-bit word.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace detail

/// Word-at-a-time string hash: 8-byte little-endian blocks folded
/// through multiply–xorshift, splitmix64-finalized. Deterministic
/// across platforms like fnv1a but several times faster on the long
/// keys (URLs, user agents) the symbol tables intern. NOT value-
/// compatible with fnv1a — only for structures that never persist or
/// exchange raw hash values.
constexpr std::uint64_t block_hash(std::string_view s) noexcept {
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = kFnvOffset ^ (static_cast<std::uint64_t>(s.size()) *
                                  0x9E3779B97F4A7C15ULL);
  while (n >= 8) {
    h = (h ^ detail::load_le64(p, 8)) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    h = (h ^ detail::load_le64(p, n)) * 0x94D049BB133111EBULL;
  }
  return detail::mix64(h);
}

}  // namespace adscope::util
