// Append-only slab of records with stable addresses (DESIGN.md §5).
//
// Element i lives at chunks_[i >> kChunkBits][i & kChunkMask]: one load of a
// chunk pointer from a table small enough to stay in L1, then the element.
// Each chunk is raw storage for kChunkSize elements; an element is constructed
// in place when it is appended, so a chunk's untouched tail costs address
// space but no resident pages. Elements never move, so references and
// pointers to them stay valid until the slab is destroyed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace silkroad::net {

template <typename T>
class Slab {
 public:
  /// 4,096 records a chunk: a million 104-byte flow records need 256 chunk
  /// pointers, and one chunk is 416 KiB of address space.
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  /// Visits the elements in index order.
  class Iterator {
   public:
    Iterator(const Slab* slab, std::size_t index)
        : slab_(slab), index_(index) {}
    const T& operator*() const { return (*slab_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const Slab* slab_;
    std::size_t index_;
  };

  Slab() = default;
  /// Elements are found by index and referred to by address.
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    std::allocator<T> alloc;
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      std::destroy_n(chunks_[c], std::min(kChunkSize, size_ - c * kChunkSize));
      alloc.deallocate(chunks_[c], kChunkSize);
    }
  }

  std::size_t size() const noexcept { return size_; }

  T& operator[](std::size_t i) noexcept {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }
  const T& operator[](std::size_t i) const noexcept {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  /// Constructs element size() from `args` and returns it.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunkSize) {
      // Grow the table first, so push_back cannot throw and leak the chunk.
      if (chunks_.size() == chunks_.capacity()) {
        chunks_.reserve(2 * chunks_.size() + 1);
      }
      chunks_.push_back(std::allocator<T>().allocate(kChunkSize));
    }
    T* at = std::construct_at(chunks_.back() + (size_ & kChunkMask),
                              std::forward<Args>(args)...);
    ++size_;
    return *at;
  }

  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  std::vector<T*> chunks_;
  std::size_t size_ = 0;
};

}  // namespace silkroad::net
