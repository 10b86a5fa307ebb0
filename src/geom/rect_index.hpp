// Static spatial index over a fixed list of closed rectangles.
//
// A uniform bucket grid answers "which rectangles contain this point" and
// "which later rectangles overlap this one" without scanning the list.
// Answers come back in ascending list index — the order a linear scan over
// the list visits them — so a caller that reports per hit keeps its report
// order when it swaps the scan for the index.
//
// Memory is O(n) in the rectangle count n whatever the coordinates: the
// grid has at most 3n + 1 buckets (see the bucket-size choice in
// rect_index.cpp), a rectangle spanning at most kMaxSpan buckets is listed
// in each of them, and any larger one goes to a single "wide" list that
// every query also walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"

namespace na::geom {

class RectIndex {
 public:
  explicit RectIndex(std::vector<Rect> rects);

  int size() const { return static_cast<int>(rects_.size()); }
  /// Number of grid buckets; at most 3 * size() + 1.
  std::size_t bucket_count() const { return start_.empty() ? 0 : start_.size() - 1; }

  /// Calls `visit(i)` for every rectangle i containing `p`, in ascending i,
  /// until `visit` returns true.
  template <class Visit>
  void containing(Point p, Visit&& visit) const;

  /// Fills `out` with the indices j > i whose rectangles overlap rectangle
  /// i, ascending and without duplicates.
  void overlapping_after(int i, std::vector<int>& out) const;

 private:
  /// Rectangles spanning more buckets than this are kept in the wide list.
  static constexpr std::int64_t kMaxSpan = 16;

  struct Span {
    std::int64_t x0, y0, x1, y1;  ///< inclusive bucket columns / rows
  };
  Span span_of(const Rect& r) const;
  template <class Fn>
  void for_each_bucket(const Span& s, Fn&& fn) const;
  std::int64_t bucket_of(Point p) const {
    return (p.y - std::int64_t{hull_.lo.y}) / cell_ * cols_ +
           (p.x - std::int64_t{hull_.lo.x}) / cell_;
  }

  std::vector<Rect> rects_;
  Rect hull_;                ///< hull of the non-empty rectangles
  std::int64_t cell_ = 1;    ///< bucket side in grid units
  std::int64_t cols_ = 0;    ///< buckets per grid row
  std::vector<int> start_;   ///< bucket b lists items_[start_[b], start_[b+1])
  std::vector<int> items_;   ///< rectangle indices, ascending per bucket
  std::vector<int> wide_;    ///< rectangles spanning > kMaxSpan buckets, ascending
};

template <class Visit>
void RectIndex::containing(Point p, Visit&& visit) const {
  if (!hull_.contains(p)) return;
  const std::int64_t b = bucket_of(p);
  const int* a = items_.data() + start_[b];
  const int* a_end = items_.data() + start_[b + 1];
  const int* w = wide_.data();
  const int* w_end = w + wide_.size();
  // Merge the bucket's list with the wide list; both are ascending.
  while (a != a_end || w != w_end) {
    const int i = (w == w_end || (a != a_end && *a < *w)) ? *a++ : *w++;
    if (rects_[i].contains(p) && visit(i)) return;
  }
}

}  // namespace na::geom
