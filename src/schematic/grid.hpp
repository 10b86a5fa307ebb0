// The routing plane: a bounded grid of tracks with obstacle and net
// occupancy bookkeeping.
//
// This realises the obstacle model of paper section 5.6.2: module boundings
// and placed system terminals are obstacles; routed nets occupy tracks and
// may be *crossed* perpendicularly by other nets but never overlapped; a
// bend of a net occupies both orientations of its grid point, so no other
// net may pass there (the paper's "bends in nets" obstacles).  The border
// of the plane acts as a module bounding (out-of-bounds is blocked).
//
// Per grid point the grid keeps one 16-byte Cell:
//   * h / v  — net occupying the point horizontally / vertically,
//   * gate   — who may be present at the point at all:
//                kNone       free,
//                kWall (-2)  blocked for every net (module symbol, pure
//                            obstacle terminal; the plane edge acts as one),
//                n >= 0      terminal cell of net n: blocked for every
//                            other net,
//   * claim  — claimpoint reservation (section 5.7).
// The predicates are inline so the search core can load a point's cell once
// and derive every test from that one load.
#pragma once

#include <span>
#include <vector>

#include "geom/rect.hpp"
#include "netlist/network.hpp"
#include "schematic/diagram.hpp"

namespace na {

class RoutingGrid {
 public:
  /// Gate value of a cell blocked for every net.
  static constexpr NetId kWall = -2;

  /// One grid point's state.  The predicates take a net `n >= 0`.
  struct Cell {
    NetId h = kNone;
    NetId v = kNone;
    NetId gate = kNone;
    NetId claim = kNone;

    bool enterable(NetId n) const {
      return (gate == kNone || gate == n) && (claim == kNone || claim == n);
    }
    bool passable(NetId n, bool horizontal) const {
      return enterable(n) && (horizontal ? h : v) == kNone;
    }
    bool can_turn(NetId n) const {
      return enterable(n) && h == kNone && v == kNone;
    }
    bool crosses(NetId n, bool horizontal) const {
      const NetId other = horizontal ? v : h;
      return other != kNone && other != n;
    }
    bool occupied_by(NetId n) const { return h == n || v == n; }
    bool node_free(NetId n) const {
      return (h == kNone || h == n) && (v == kNone || v == n);
    }
  };
  static_assert(sizeof(Cell) == 16);

  explicit RoutingGrid(geom::Rect area);

  const geom::Rect& area() const { return area_; }
  bool in_bounds(geom::Point p) const { return area_.contains(p); }

  /// The cell at `p`, which must be in bounds.
  const Cell& cell(geom::Point p) const { return cells_[index(p)]; }

  // ----- obstacle construction ----------------------------------------------
  /// Blocks `p` for every net; a terminal cell keeps its owner.
  void block(geom::Point p);
  void block_rect(geom::Rect r);
  /// Marks a terminal cell: blocked for everyone except net `n` (for
  /// everyone when `n` is kNone).
  void set_terminal(geom::Point p, NetId n);
  /// Claims `p` for net `n` (a temporary obstacle for all other nets).
  void set_claim(geom::Point p, NetId n);
  void clear_claim(geom::Point p);

  // ----- state queries (out of bounds counts as blocked) --------------------
  bool blocked(geom::Point p) const {
    return !in_bounds(p) || cell(p).gate != kNone;
  }
  NetId terminal_owner(geom::Point p) const {
    return in_bounds(p) && cell(p).gate >= 0 ? cell(p).gate : kNone;
  }
  NetId claim_owner(geom::Point p) const {
    return in_bounds(p) ? cell(p).claim : kNone;
  }
  NetId h_net(geom::Point p) const { return in_bounds(p) ? cell(p).h : kNone; }
  NetId v_net(geom::Point p) const { return in_bounds(p) ? cell(p).v : kNone; }

  /// May net `n` be present at `p` at all (bounds, modules, claims,
  /// foreign terminal cells)?
  bool enterable(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).enterable(n);
  }
  /// May net `n` run through `p` in the given orientation?  Own occupancy
  /// also blocks (re-using a track would overlap the net with itself; the
  /// router treats own-net cells as join targets instead).
  bool passable(geom::Point p, NetId n, bool horizontal) const {
    return in_bounds(p) && cell(p).passable(n, horizontal);
  }
  /// May net `n` place a corner (or branch) at `p`?  Requires both
  /// orientations free: a bend obstructs the whole point.
  bool can_turn(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).can_turn(n);
  }
  /// Does a move through `p` in the given orientation cross a foreign net?
  bool crosses_at(geom::Point p, NetId n, bool horizontal) const {
    return in_bounds(p) && cell(p).crosses(n, horizontal);
  }
  /// Is `p` occupied by net `n` itself (either orientation)?
  bool occupied_by(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).occupied_by(n);
  }
  /// May net `n` place a *node* (endpoint, corner, branch) at `p`?  Both
  /// orientations must be free or already net `n`'s own: a node of one net
  /// may not be touched by any other net.
  bool node_free(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).node_free(n);
  }

  // ----- net commitment ------------------------------------------------------
  /// Registers a routed polyline: every unit step of the chain occupies its
  /// orientation at both endpoints of the step.  Re-occupation by the same
  /// net is idempotent; occupation over a foreign net throws (internal
  /// invariant violation — the router must never produce it).
  void occupy_polyline(NetId n, std::span<const geom::Point> pts);

  /// Raw occupancy write of one orientation slot (build_grid uses it to
  /// make the loose ends of prerouted polylines nodes of their net).
  void set_track(geom::Point p, bool horizontal, NetId n);

  /// Hull of every track net `n` has occupied on this grid (empty when it
  /// has none): a bound on the cells a join search for `n` can arrive at.
  geom::Rect net_extent(NetId n) const {
    return n >= 0 && static_cast<size_t>(n) < extent_.size() ? extent_[n]
                                                             : geom::Rect{};
  }

  /// A standalone sub-grid covering the intersection of `sub` with this
  /// grid's area; every covered cell is copied verbatim.  Points outside
  /// the sub-area are out of bounds — the clip boundary acts blocked, so
  /// a search on the clipped grid can never produce geometry leaving it
  /// (the sharded router's per-shard search space).  Throws when the
  /// intersection is empty.
  RoutingGrid clipped(geom::Rect sub) const;

 private:
  size_t index(geom::Point p) const {
    return static_cast<size_t>(p.y - area_.lo.y) * width_ + (p.x - area_.lo.x);
  }
  Cell& at(geom::Point p) { return cells_[index(p)]; }
  void grow_extent(NetId n, geom::Rect r);

  geom::Rect area_;
  int width_ = 0;  // number of columns
  std::vector<Cell> cells_;
  std::vector<geom::Rect> extent_;  ///< per net id, see net_extent()
};

/// Builds the routing plane for a fully placed diagram: the placement
/// bounding box expanded by `margin` empty tracks, with every module
/// rectangle blocked, every connected terminal marked as its net's entry
/// point, every system terminal blocked for foreign nets, and every
/// prerouted polyline already occupied.
RoutingGrid build_grid(const Diagram& dia, int margin = 4);

}  // namespace na
