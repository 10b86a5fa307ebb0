// An insertion-ordered, open-addressing hash table keyed by grid point:
// records numbered in first-insertion order, found through a slot array of
// record indices (linear probing, load at most 1/2).  Sized once from an
// upper bound on the distinct points (exceeding it is a precondition
// violation), it never rehashes and its memory is O(points), never O(extent).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/point.hpp"

namespace na::geom {

template <class Rec>
class PointTable {
 public:
  static constexpr std::uint32_t npos = ~std::uint32_t{0};

  /// A table for at most `max_points` distinct points.
  explicit PointTable(size_t max_points)
      : slots_(std::bit_ceil(2 * max_points + 2), npos),
        block_(std::min<size_t>(kBlock, max_points)),
        shift_(64 - std::countr_zero(slots_.size())) {
    blocks_.reserve((max_points >> kBlockBits) + 1);
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// The index of p's record, or npos.
  std::uint32_t find(Point p) const { return slots_[slot(point_key(p))]; }

  /// find(p), first trying the records either side of record `near`: the
  /// points of one walk sit next to their walk neighbours.
  std::uint32_t find_near(Point p, std::uint32_t near) const {
    const std::uint64_t key = point_key(p);
    if (near + 1 < size_ && entry(near + 1).key == key) return near + 1;
    if (near - 1 < size_ && entry(near - 1).key == key) return near - 1;
    return slots_[slot(key)];
  }

  /// The index of p's record, appending a default one if p is new.
  std::uint32_t insert(Point p) {
    const std::uint64_t key = point_key(p);
    std::uint32_t& i = slots_[slot(key)];
    if (i == npos) {
      if ((size_ & kBlockMask) == 0) blocks_.push_back(std::make_unique<Entry[]>(block_));
      i = size_++;
      entry(i).key = key;
    }
    return i;
  }

  Rec& operator[](std::uint32_t i) { return entry(i).rec; }
  Point point(std::uint32_t i) const { return point_of_key(entry(i).key); }

 private:
  struct Entry {
    std::uint64_t key;
    Rec rec;
  };
  // Records live in fixed blocks, each a small allocation: freeing a table
  // returns them to the allocator's free lists for the next one, where one
  // large array would be unmapped and push later large allocations onto
  // the heap, raising the process's peak memory call after call.  A table
  // smaller than one block gets a single block of its own size.
  static constexpr int kBlockBits = 11;
  static constexpr std::uint32_t kBlock = 1u << kBlockBits;
  static constexpr std::uint32_t kBlockMask = kBlock - 1;

  Entry& entry(std::uint32_t i) const { return blocks_[i >> kBlockBits][i & kBlockMask]; }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t slot(std::uint64_t key) const {
    size_t s = ((key ^ (key >> 29)) * 0x9e3779b97f4a7c15ull) >> shift_;
    while (slots_[s] != npos && entry(slots_[s]).key != key) s = (s + 1) & (slots_.size() - 1);
    return s;
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::unique_ptr<Entry[]>> blocks_;  ///< records, insertion order
  size_t block_;  ///< entries per block
  std::uint32_t size_ = 0;
  int shift_;
};

}  // namespace na::geom
