// Axis-aligned integer rectangles and 1-D intervals.
//
// Rectangles are closed on both ends: a module of size (w, h) placed at
// lower-left (x, y) occupies every grid point with x <= px <= x+w and
// y <= py <= y+h.  This matches the paper's obstacle model where module
// boundings themselves are obstacles (ADD_OBSTACLE_BOUNDINGS).
#pragma once

#include <algorithm>
#include <iosfwd>
#include <string>

#include "geom/point.hpp"

namespace na::geom {

/// Closed integer interval [lo, hi].  Empty iff lo > hi.
struct Interval {
  int lo = 0;
  int hi = -1;

  constexpr bool empty() const { return lo > hi; }
  constexpr int length() const { return empty() ? 0 : hi - lo; }
  constexpr bool contains(int v) const { return lo <= v && v <= hi; }
  constexpr bool overlaps(Interval o) const {
    return !empty() && !o.empty() && lo <= o.hi && o.lo <= hi;
  }
  constexpr Interval intersect(Interval o) const {
    return {std::max(lo, o.lo), std::min(hi, o.hi)};
  }
  constexpr Interval hull(Interval o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }
  constexpr Interval expanded(int by) const { return {lo - by, hi + by}; }
  friend constexpr bool operator==(Interval, Interval) = default;
};

/// Closed integer rectangle.  Empty iff either axis interval is empty.
struct Rect {
  Point lo;         // lower-left corner (inclusive)
  Point hi{-1, -1}; // upper-right corner (inclusive)

  static constexpr Rect from_size(Point lower_left, Point size) {
    return {lower_left, lower_left + size};
  }

  constexpr bool empty() const { return lo.x > hi.x || lo.y > hi.y; }
  constexpr int width() const { return empty() ? 0 : hi.x - lo.x; }
  constexpr int height() const { return empty() ? 0 : hi.y - lo.y; }
  constexpr Interval xs() const { return {lo.x, hi.x}; }
  constexpr Interval ys() const { return {lo.y, hi.y}; }

  constexpr bool contains(Point p) const {
    return xs().contains(p.x) && ys().contains(p.y);
  }
  constexpr bool contains(Rect o) const {
    return !o.empty() && contains(o.lo) && contains(o.hi);
  }
  constexpr bool overlaps(Rect o) const {
    return xs().overlaps(o.xs()) && ys().overlaps(o.ys());
  }
  constexpr Rect expanded(int by) const {
    return {{lo.x - by, lo.y - by}, {hi.x + by, hi.y + by}};
  }
  /// The points in both (empty when they are disjoint).
  constexpr Rect intersect(Rect o) const {
    return {{std::max(lo.x, o.lo.x), std::max(lo.y, o.lo.y)},
            {std::min(hi.x, o.hi.x), std::min(hi.y, o.hi.y)}};
  }
  /// Smallest rectangle containing both.
  constexpr Rect hull(Rect o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {{std::min(lo.x, o.lo.x), std::min(lo.y, o.lo.y)},
            {std::max(hi.x, o.hi.x), std::max(hi.y, o.hi.y)}};
  }
  constexpr Rect hull(Point p) const { return hull(Rect{p, p}); }
  constexpr Point center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }
  /// True when `p` lies on the rectangle's boundary.
  constexpr bool on_boundary(Point p) const {
    if (!contains(p)) return false;
    return p.x == lo.x || p.x == hi.x || p.y == lo.y || p.y == hi.y;
  }
  friend constexpr bool operator==(Rect, Rect) = default;
};

/// An axis-parallel segment between two grid points (either orientation,
/// possibly degenerate).  Net paths are stored as chains of these.
struct Segment {
  Point a;
  Point b;

  constexpr bool horizontal() const { return a.y == b.y; }
  constexpr bool vertical() const { return a.x == b.x; }
  constexpr bool degenerate() const { return a == b; }
  constexpr int length() const { return manhattan(a, b); }
  /// Bounding rectangle (lo <= hi normalised).
  constexpr Rect bounds() const {
    return {{std::min(a.x, b.x), std::min(a.y, b.y)},
            {std::max(a.x, b.x), std::max(a.y, b.y)}};
  }
  constexpr bool contains(Point p) const {
    return bounds().contains(p) && (horizontal() || vertical());
  }
  friend constexpr bool operator==(Segment, Segment) = default;
};

std::string to_string(Rect r);
std::ostream& operator<<(std::ostream& os, Rect r);
std::string to_string(Segment s);
std::ostream& operator<<(std::ostream& os, Segment s);

}  // namespace na::geom
