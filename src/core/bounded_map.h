// Insertion-order-bounded string map.
//
// The referrer reconstruction keeps several per-user URL associations.
// Traces are unbounded streams, so every map is capped: when full, the
// oldest entry is evicted (FIFO). Web page structures are temporally
// local — a request's page context arrives within the same page load —
// so FIFO eviction loses almost nothing while bounding memory hard.
//
// Storage is flat: entries live in a recycled slot pool indexed by an
// open-addressing probe table, and the FIFO order is a ring of key
// hashes. Lookups are heterogeneous (string_view in, no temporary
// std::string), overwrites assign into the existing slot, and inserts
// reuse evicted slots' string capacity — so the per-record put/get/take
// cycle of the classifier's hot loop settles to zero heap allocations.
// Keys hash with util::block_hash; every operation also takes that hash
// precomputed, so a caller that probes several maps with one key (the
// classifier's URL spec) hashes it once.
//
// Eviction semantics replicate the original deque-of-keys
// implementation exactly (pinned by test_referrer.cpp):
//  * overwriting an existing key does NOT refresh its position;
//  * take() leaves its order entry behind — a later re-put of the same
//    key can be evicted early by that stale entry;
//  * eviction pops stale order entries until a live key dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat_agg.h"
#include "util/hash.h"

namespace adscope::core {

class BoundedStringMap {
 public:
  explicit BoundedStringMap(std::size_t capacity) : capacity_(capacity) {}

  /// Insert or overwrite. Overwrites keep the key's original FIFO
  /// position (try_emplace-style: the stored key is not re-built).
  void put(std::string_view key, std::string_view value) {
    put(util::block_hash(key), key, value);
  }
  /// put() with `hash` == util::block_hash(key) already computed.
  void put(std::uint64_t hash, std::string_view key, std::string_view value) {
    if (const auto slot = find_slot(hash, key); slot != kNone) {
      slots_[slot].value.assign(value);
      return;
    }
    const auto slot = acquire_slot();
    Slot& entry = slots_[slot];
    entry.key.assign(key);
    entry.value.assign(value);
    entry.hash = hash;
    table_insert(hash, slot);
    ++size_;
    order_.push_back(hash);
    while (size_ > capacity_ && !order_.empty()) {
      const auto victim_hash = order_.front();
      order_.pop_front();
      if (const auto victim = find_slot_by_hash(victim_hash);
          victim != kNone) {
        release_slot(victim);
      }
      // else: stale order entry (key was taken) — skip, keep popping.
    }
  }

  /// Borrowing lookup — the value stays owned by the map and is valid
  /// until the next mutating call.
  const std::string* find(std::string_view key) const noexcept {
    return find(util::block_hash(key), key);
  }
  const std::string* find(std::uint64_t hash, std::string_view key) const
      noexcept {
    const auto slot = find_slot(hash, key);
    return slot == kNone ? nullptr : &slots_[slot].value;
  }

  std::optional<std::string> get(std::string_view key) const {
    const auto* value = find(key);
    if (value == nullptr) return std::nullopt;
    return *value;
  }

  /// Get-and-remove into a caller-owned buffer (capacity reuse);
  /// returns false and leaves `out` untouched when absent.
  bool take_into(std::string_view key, std::string& out) {
    return take_into(util::block_hash(key), key, out);
  }
  bool take_into(std::uint64_t hash, std::string_view key, std::string& out) {
    const auto slot = find_slot(hash, key);
    if (slot == kNone) return false;
    out.assign(slots_[slot].value);
    release_slot(slot);  // stale order entry is harmless: skipped later
    return true;
  }

  /// Get and remove (redirect targets are consumed exactly once).
  std::optional<std::string> take(std::string_view key) {
    std::string out;
    if (!take_into(key, out)) return std::nullopt;
    return out;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    std::string key;
    std::string value;
    std::uint64_t hash = 0;
  };

  std::size_t home_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(detail::mix_u64(hash)) &
           (table_.size() - 1);
  }

  std::uint32_t find_slot(std::uint64_t hash, std::string_view key) const
      noexcept {
    if (table_.empty()) return kNone;
    auto at = home_of(hash);
    const auto mask = table_.size() - 1;
    while (table_[at] != kNone) {
      const Slot& slot = slots_[table_[at]];
      if (slot.hash == hash && slot.key == key) return table_[at];
      at = (at + 1) & mask;
    }
    return kNone;
  }

  /// Eviction has only the hash (the order ring stores no strings);
  /// a 64-bit block_hash collision between two live keys could evict
  /// the hash-twin instead — indistinguishable in practice.
  std::uint32_t find_slot_by_hash(std::uint64_t hash) const noexcept {
    if (table_.empty()) return kNone;
    auto at = home_of(hash);
    const auto mask = table_.size() - 1;
    while (table_[at] != kNone) {
      if (slots_[table_[at]].hash == hash) return table_[at];
      at = (at + 1) & mask;
    }
    return kNone;
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const auto slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void table_insert(std::uint64_t hash, std::uint32_t slot) {
    if (table_.empty() || (size_ + 1) * 10 >= table_.size() * 7) {
      grow_table();
    }
    auto at = home_of(hash);
    const auto mask = table_.size() - 1;
    while (table_[at] != kNone) at = (at + 1) & mask;
    table_[at] = slot;
  }

  void grow_table() {
    const std::size_t new_size = table_.empty() ? 16 : table_.size() * 2;
    std::vector<std::uint32_t> fresh(new_size, kNone);
    const auto mask = new_size - 1;
    for (const auto slot : table_) {
      if (slot == kNone) continue;
      auto at = static_cast<std::size_t>(
                    detail::mix_u64(slots_[slot].hash)) &
                mask;
      while (fresh[at] != kNone) at = (at + 1) & mask;
      fresh[at] = slot;
    }
    table_ = std::move(fresh);
  }

  /// Remove `slot` from the probe table (backward-shift deletion) and
  /// recycle it; its strings keep their capacity for the next insert.
  void release_slot(std::uint32_t slot) {
    const auto mask = table_.size() - 1;
    auto at = home_of(slots_[slot].hash);
    while (table_[at] != slot) at = (at + 1) & mask;
    auto hole = at;
    auto next = (hole + 1) & mask;
    while (table_[next] != kNone) {
      const auto home = home_of(slots_[table_[next]].hash);
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        table_[hole] = table_[next];
        hole = next;
      }
      next = (next + 1) & mask;
    }
    table_[hole] = kNone;
    free_.push_back(slot);
    --size_;
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> table_;  // probe table of slot indices
  OrderRing order_;  // key hashes, oldest first
};

}  // namespace adscope::core
