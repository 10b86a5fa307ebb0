// Centre-of-gravity constructive placement of rectangular items — the
// shared engine behind BOX_PLACEMENT (section 4.6.5) and
// PARTITION_PLACEMENT (section 4.6.6), which the paper describes as
// "nearly identical".
//
// The item with the most elements is pinned first; every further item is
// the one most heavily connected to the placed ones and lands on the free
// position minimising the distance between two gravity centres: the
// geometric centre of its own terminals on nets shared with the placed
// items (GRAVITY_BOX) and the centre of the placed items' terminals on
// those nets (GRAVITY_PLACED_BOXES).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geom/rect.hpp"
#include "netlist/network.hpp"

namespace na {

struct GravityItem {
  geom::Point size;  ///< bounding-box extent
  /// Connected terminals: net id and position relative to the item origin.
  std::vector<std::pair<NetId, geom::Point>> terms;
  int weight = 0;  ///< element count; the heaviest item is placed first
  /// Preplaced items keep this absolute position (incremental placement).
  std::optional<geom::Point> fixed_pos;
};

/// Places all items without overlap (candidate rectangles are inflated by
/// `spacing` tracks against the placed ones).  Returns one lower-left
/// position per item, in item order.
std::vector<geom::Point> gravity_place(std::span<const GravityItem> items,
                                       int spacing);

/// The quadratic rescan transcription of PLACE_BOX / PLACE_PARTITION,
/// kept as the correctness oracle for the incremental gravity_place —
/// tests assert both return identical positions; use gravity_place
/// everywhere else.
std::vector<geom::Point> gravity_place_reference(
    std::span<const GravityItem> items, int spacing);

/// The free-position search of PLACE_BOX / PLACE_PARTITION: the position
/// nearest to `ideal` (squared Euclidean distance) where a `size` rectangle
/// inflated by `spacing` overlaps none of `placed`.
geom::Point nearest_free_position(geom::Point ideal, geom::Point size,
                                  std::span<const geom::Rect> placed, int spacing);

/// The ring search of PLACE_BOX / PLACE_PARTITION, over any feasibility
/// predicate and a non-negative penalty: the feasible position within
/// Chebyshev radius `max_radius` of `ideal` minimising
/// dist2(pos, ideal) + penalty(pos), the first one visited on ties (the
/// ideal point, then ring by ring outward in a fixed order).  nullopt when
/// no position in range is feasible.
/// With a zero penalty a feasible ideal point wins outright and the result
/// is the nearest feasible position.
template <typename Feasible, typename Penalty>
std::optional<geom::Point> ring_search(geom::Point ideal, int max_radius,
                                       Feasible feasible, Penalty penalty) {
  std::optional<geom::Point> best;
  std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
  auto consider = [&](geom::Point pos) {
    const std::int64_t d2 = geom::dist2(pos, ideal);
    if (d2 >= best_score || !feasible(pos)) return;
    const std::int64_t score = d2 + penalty(pos);
    if (score < best_score) {
      best = pos;
      best_score = score;
    }
  };
  consider(ideal);
  for (int r = 1; r <= max_radius; ++r) {
    // Every position on ring r is at least r tracks out and the penalty is
    // non-negative, so its score is at least r*r; once that exceeds the
    // best score, no later ring wins.
    if (best_score < static_cast<std::int64_t>(r) * r) break;
    for (int dx = -r; dx <= r; ++dx) {
      consider(ideal + geom::Point{dx, r});
      consider(ideal + geom::Point{dx, -r});
    }
    for (int dy = -r + 1; dy < r; ++dy) {
      consider(ideal + geom::Point{r, dy});
      consider(ideal + geom::Point{-r, dy});
    }
  }
  return best;
}

/// ring_search with a zero penalty: the feasible position nearest `ideal`.
template <typename Feasible>
std::optional<geom::Point> ring_search(geom::Point ideal, int max_radius,
                                       Feasible feasible) {
  return ring_search(ideal, max_radius, feasible,
                     [](geom::Point) { return std::int64_t{0}; });
}

}  // namespace na
