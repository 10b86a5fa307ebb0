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

}  // namespace na
