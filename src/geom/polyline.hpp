// Orthogonal polyline chains: walking their cells and splitting them.
//
// Routed nets are stored as corner-point chains.  The incremental patch
// router keeps the clean runs of a polyline whose middle crosses a dirty
// region: split_polyline cuts at segment granularity, so every cut lands
// on an existing corner (a node the net already owned, which no other net
// may touch — the new endpoints stay safe under the validator's
// node-contact rule).
#pragma once

#include <functional>
#include <vector>

#include "geom/rect.hpp"

namespace na::geom {

using Polyline = std::vector<Point>;

/// Calls `f(p)` for every grid point of `pl`: a one-point chain is that
/// point, otherwise each orthogonal segment from its start to its end
/// (shared corners are visited twice; non-orthogonal segments, which no
/// router emits, are skipped).
template <typename F>
void for_each_cell(const Polyline& pl, F&& f) {
  if (pl.size() == 1) {
    f(pl[0]);
    return;
  }
  for (size_t i = 1; i < pl.size(); ++i) {
    const Point a = pl[i - 1];
    const Point b = pl[i];
    if (a.x != b.x && a.y != b.y) continue;
    const Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
    for (Point p = a;; p += step) {
      f(p);
      if (p == b) break;
    }
  }
}

/// Point count plus Manhattan length: an upper bound on the distinct
/// points for_each_cell visits, which sizes every geom::PointTable over
/// drawn geometry.
size_t cell_bound(const Polyline& pl);

/// Splits `pl` into the maximal sub-chains whose every segment satisfies
/// `keep`.  Cuts happen only at existing corner points; pieces that
/// degenerate to a single point are dropped.  A chain with fewer than two
/// points yields nothing.
std::vector<Polyline> split_polyline(const Polyline& pl,
                                     const std::function<bool(const Segment&)>& keep);

}  // namespace na::geom
