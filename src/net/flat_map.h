// Open-addressed hash map for host-side bookkeeping (DESIGN.md §5).
//
// Keys and values live in one flat array, found by linear probing from the
// key's home slot; a parallel array of 32-bit tags (0 = empty) lets a probe
// skip most key comparisons. Erase shifts the rest of the probe run back
// (Knuth's Algorithm R), so there are no tombstones and a lookup never walks
// past the first empty slot. The capacity is a power of two, starts at zero
// and doubles at 3/4 load: nothing is allocated until the first insert.
//
// Iteration visits slots in index order, which is hash order: it is
// deterministic for a fixed hash and operation sequence, but never use it to
// order anything the model or a protocol observes (srlint R10).
//
// Hash and Eq may carry state, and lookups may use any probe type they
// accept: a map can key on an id and be searched by the value the id names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace silkroad::net {

/// K and V must be default-constructible; erase leaves no moved-from values
/// behind. A probe type Q needs Hash(Q) equal to Hash(K) of the key it
/// matches, and Eq(K, Q).
template <typename K, typename V, typename Hash, typename Eq = std::equal_to<K>>
class FlatMap {
 public:
  struct Entry {
    K key;
    V value;
  };

  template <bool Const>
  class Iterator {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const Entry&, Entry&>;

    Iterator(Map* map, std::size_t slot) : map_(map), slot_(slot) { skip(); }
    Ref operator*() const { return map_->entries_[slot_]; }
    Iterator& operator++() {
      ++slot_;
      skip();
      return *this;
    }
    bool operator==(const Iterator& other) const { return slot_ == other.slot_; }

   private:
    void skip() {
      while (slot_ < map_->tags_.size() && map_->tags_[slot_] == 0) ++slot_;
    }
    Map* map_;
    std::size_t slot_;
  };

  FlatMap() = default;
  FlatMap(Hash hash, Eq eq) : hash_(std::move(hash)), eq_(std::move(eq)) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return tags_.size(); }

  template <typename Q>
  V* find(const Q& key) noexcept {
    const std::size_t slot = slot_of(key);
    return slot == kNone ? nullptr : &entries_[slot].value;
  }
  template <typename Q>
  const V* find(const Q& key) const noexcept {
    const std::size_t slot = slot_of(key);
    return slot == kNone ? nullptr : &entries_[slot].value;
  }
  template <typename Q>
  bool contains(const Q& key) const noexcept {
    return slot_of(key) != kNone;
  }

  /// Inserts key -> V(args...) unless `key` is present. Returns the stored
  /// value and whether it was inserted. The pointer lives until the next
  /// insert or erase.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    const std::uint32_t tag = tag_of(key);
    if (!tags_.empty()) {
      const std::size_t mask = tags_.size() - 1;
      for (std::size_t i = tag & mask; tags_[i] != 0; i = (i + 1) & mask) {
        if (tags_[i] == tag && eq_(entries_[i].key, key)) {
          return {&entries_[i].value, false};
        }
      }
    }
    if ((size_ + 1) * 4 > tags_.size() * 3) grow();
    const std::size_t mask = tags_.size() - 1;
    std::size_t i = tag & mask;
    while (tags_[i] != 0) i = (i + 1) & mask;
    tags_[i] = tag;
    entries_[i] = Entry{key, V(std::forward<Args>(args)...)};
    ++size_;
    return {&entries_[i].value, true};
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; returns false when absent.
  template <typename Q>
  bool erase(const Q& key) {
    std::size_t hole = slot_of(key);
    if (hole == kNone) return false;
    const std::size_t mask = tags_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; tags_[j] != 0; j = (j + 1) & mask) {
      // The entry at j stays unless the hole lies between its home and j.
      const std::size_t home = tags_[j] & mask;
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      tags_[hole] = tags_[j];
      entries_[hole] = std::move(entries_[j]);
      hole = j;
    }
    tags_[hole] = 0;
    entries_[hole] = Entry{};
    --size_;
    return true;
  }

  /// Drops every entry and keeps the capacity.
  void clear() {
    for (std::size_t i = 0; size_ > 0 && i < tags_.size(); ++i) {
      if (tags_[i] == 0) continue;
      tags_[i] = 0;
      entries_[i] = Entry{};
      --size_;
    }
  }

  Iterator<false> begin() { return {this, 0}; }
  Iterator<false> end() { return {this, tags_.size()}; }
  Iterator<true> begin() const { return {this, 0}; }
  Iterator<true> end() const { return {this, tags_.size()}; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kInitialCapacity = 16;

  /// The low 31 hash bits pick the home slot (capacities stay below 2^31);
  /// the top bit marks the slot used.
  template <typename Q>
  std::uint32_t tag_of(const Q& key) const noexcept {
    return static_cast<std::uint32_t>(hash_(key)) | 0x80000000u;
  }

  template <typename Q>
  std::size_t slot_of(const Q& key) const noexcept {
    if (size_ == 0) return kNone;
    const std::uint32_t tag = tag_of(key);
    const std::size_t mask = tags_.size() - 1;
    for (std::size_t i = tag & mask; tags_[i] != 0; i = (i + 1) & mask) {
      if (tags_[i] == tag && eq_(entries_[i].key, key)) return i;
    }
    return kNone;
  }

  void grow() {
    const std::size_t capacity =
        tags_.empty() ? kInitialCapacity : tags_.size() * 2;
    const std::vector<std::uint32_t> old_tags =
        std::exchange(tags_, std::vector<std::uint32_t>(capacity, 0));
    std::vector<Entry> old_entries =
        std::exchange(entries_, std::vector<Entry>(capacity));
    const std::size_t mask = capacity - 1;
    for (std::size_t s = 0; s < old_tags.size(); ++s) {
      if (old_tags[s] == 0) continue;
      std::size_t i = old_tags[s] & mask;
      while (tags_[i] != 0) i = (i + 1) & mask;
      tags_[i] = old_tags[s];
      entries_[i] = std::move(old_entries[s]);
    }
  }

  std::vector<std::uint32_t> tags_;
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] Eq eq_;
};

}  // namespace silkroad::net
