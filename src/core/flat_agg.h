// Flat open-addressing aggregate tables.
//
// The study aggregates are giant group-bys: probe a key, bump counters
// in the value. Node-based std::map/std::unordered_map pay an
// allocation per distinct key and a pointer chase per record; FlatMap
// keeps (key, value) pairs inline in one contiguous array with linear
// probing over a power-of-two capacity, in the style the filter
// engine's TokenIndex proved out. A warm probe (key already present)
// touches one cache line and never allocates, which is what the
// zero-alloc replay→report loop needs.
//
// Occupancy lives in a separate byte array rather than a sentinel key:
// aggregate keys include IPv4 0, symbol 0 and hash 0, so no key value
// is free to mean "empty".
//
// Iteration order is probe-table order and therefore depends on insert
// history — exactly like the unordered_maps these tables replace. Every
// externally visible ranking re-sorts with a total-order tie-break
// (DESIGN.md §6), so reports stay byte-identical no matter how shards
// filled the tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace adscope::core {

namespace detail {

/// Integer key mixer (splitmix64 finalizer). Aggregate keys are raw
/// IPv4 addresses, dense symbol ids and already-mixed u64 hashes; the
/// finalizer spreads all three well over a power-of-two table.
inline std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Open-addressing map from an integer-like key (u32/u64/Sym) to an
/// inline value. API mirrors the std::unordered_map subset the
/// aggregates used: operator[], find, contains, erase, size, iteration
/// as pair-like entries.
template <typename Key, typename Mapped>
class FlatMap {
  static_assert(sizeof(Key) <= sizeof(std::uint64_t),
                "FlatMap keys are integer-like");

 public:
  using value_type = std::pair<Key, Mapped>;

  FlatMap() = default;

  /// Value for `key`, default-constructed on first sight.
  Mapped& operator[](Key key) {
    if (slots_.empty()) grow();
    auto slot = probe(key);
    if (used_[slot]) return slots_[slot].second;
    if ((size_ + 1) * 10 >= slots_.size() * 7) {
      grow();
      slot = probe(key);
    }
    used_[slot] = 1;
    ++size_;
    slots_[slot].first = key;
    slots_[slot].second = Mapped{};
    return slots_[slot].second;
  }

  Mapped* find(Key key) noexcept {
    if (slots_.empty()) return nullptr;
    const auto slot = probe(key);
    return used_[slot] ? &slots_[slot].second : nullptr;
  }
  const Mapped* find(Key key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }
  bool contains(Key key) const noexcept { return find(key) != nullptr; }

  /// Remove `key` if present. Backward-shift deletion keeps the linear
  /// probe invariant without tombstones.
  bool erase(Key key) noexcept {
    if (slots_.empty()) return false;
    auto slot = probe(key);
    if (!used_[slot]) return false;
    const auto mask = slots_.size() - 1;
    auto hole = slot;
    auto next = (hole + 1) & mask;
    while (used_[next]) {
      const auto home =
          static_cast<std::size_t>(detail::mix_u64(
              static_cast<std::uint64_t>(slots_[next].first))) & mask;
      // Shift back only when the hole sits within [home, next) on the
      // probe ring; otherwise `next` is already at or before its home.
      const bool movable = ((next - home) & mask) >= ((next - hole) & mask);
      if (movable) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    used_[hole] = 0;
    slots_[hole].second = Mapped{};
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  template <bool Const>
  class Iter {
    using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

   public:
    Iter(Owner* owner, std::size_t at) : owner_(owner), at_(at) { skip(); }
    Ref operator*() const { return owner_->slots_[at_]; }
    Ptr operator->() const { return &owner_->slots_[at_]; }
    Iter& operator++() {
      ++at_;
      skip();
      return *this;
    }
    bool operator==(const Iter& other) const { return at_ == other.at_; }
    bool operator!=(const Iter& other) const { return at_ != other.at_; }

   private:
    void skip() {
      while (at_ < owner_->slots_.size() && !owner_->used_[at_]) ++at_;
    }
    Owner* owner_;
    std::size_t at_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() noexcept { return iterator(this, 0); }
  iterator end() noexcept { return iterator(this, slots_.size()); }
  const_iterator begin() const noexcept { return const_iterator(this, 0); }
  const_iterator end() const noexcept {
    return const_iterator(this, slots_.size());
  }

 private:
  /// First slot that holds `key` or the empty slot where it belongs.
  std::size_t probe(Key key) const noexcept {
    const auto mask = slots_.size() - 1;
    auto slot = static_cast<std::size_t>(
                    detail::mix_u64(static_cast<std::uint64_t>(key))) &
                mask;
    while (used_[slot] && !(slots_[slot].first == key)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void grow() {
    const std::size_t new_size = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<value_type> fresh(new_size);
    std::vector<std::uint8_t> fresh_used(new_size, 0);
    const auto mask = new_size - 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!used_[i]) continue;
      auto at = static_cast<std::size_t>(detail::mix_u64(
                    static_cast<std::uint64_t>(slots_[i].first))) &
                mask;
      while (fresh_used[at]) at = (at + 1) & mask;
      fresh[at] = std::move(slots_[i]);
      fresh_used[at] = 1;
    }
    slots_ = std::move(fresh);
    used_ = std::move(fresh_used);
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

/// Open-addressing set of integer-like keys (household IPs). Same
/// layout and load policy as FlatMap, without the mapped values.
template <typename Key>
class FlatSet {
 public:
  FlatSet() = default;

  /// Insert `key`; returns true when it was new.
  bool insert(Key key) {
    if (slots_.empty()) grow();
    auto slot = probe(key);
    if (used_[slot]) return false;
    if ((size_ + 1) * 10 >= slots_.size() * 7) {
      grow();
      slot = probe(key);
    }
    used_[slot] = 1;
    slots_[slot] = key;
    ++size_;
    return true;
  }

  bool contains(Key key) const noexcept {
    if (slots_.empty()) return false;
    return used_[probe(key)] != 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Visit every element (no ordering guarantee).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i]);
    }
  }

 private:
  std::size_t probe(Key key) const noexcept {
    const auto mask = slots_.size() - 1;
    auto slot = static_cast<std::size_t>(
                    detail::mix_u64(static_cast<std::uint64_t>(key))) &
                mask;
    while (used_[slot] && !(slots_[slot] == key)) slot = (slot + 1) & mask;
    return slot;
  }

  void grow() {
    const std::size_t new_size = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Key> fresh(new_size);
    std::vector<std::uint8_t> fresh_used(new_size, 0);
    const auto mask = new_size - 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!used_[i]) continue;
      auto at = static_cast<std::size_t>(detail::mix_u64(
                    static_cast<std::uint64_t>(slots_[i]))) &
                mask;
      while (fresh_used[at]) at = (at + 1) & mask;
      fresh[at] = slots_[i];
      fresh_used[at] = 1;
    }
    slots_ = std::move(fresh);
    used_ = std::move(fresh_used);
  }

  std::vector<Key> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

/// FIFO of integer keys (user keys, map-key hashes), oldest first. A
/// plain power-of-two ring instead of std::deque: deque churns chunk
/// allocations under steady push_back/pop_front, a ring only ever grows
/// (and then never allocates again on the warm path).
class OrderRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::uint64_t front() const noexcept { return buf_[head_]; }
  void pop_front() noexcept {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  void push_back(std::uint64_t key) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = key;
    ++count_;
  }

 private:
  void grow() {
    std::vector<std::uint64_t> next(buf_.empty() ? 16 : buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<std::uint64_t> buf_;  // capacity is a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace adscope::core
