// Unit tests for the routing grid: obstacle bookkeeping, passability,
// crossing/turn rules, claimpoints and grid construction from diagrams.
#include <random>

#include <gtest/gtest.h>

#include "netlist/module_library.hpp"
#include "schematic/grid.hpp"

namespace na {
namespace {

TEST(RoutingGrid, Bounds) {
  RoutingGrid g({{0, 0}, {9, 9}});
  EXPECT_TRUE(g.in_bounds({0, 0}));
  EXPECT_TRUE(g.in_bounds({9, 9}));
  EXPECT_FALSE(g.in_bounds({10, 0}));
  EXPECT_FALSE(g.in_bounds({-1, 5}));
  // Out of bounds is blocked (the border of the plane is an obstacle).
  EXPECT_TRUE(g.blocked({-1, 0}));
  EXPECT_FALSE(g.blocked({5, 5}));
  EXPECT_THROW(RoutingGrid(geom::Rect{}), std::invalid_argument);
}

TEST(RoutingGrid, BlockRect) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.block_rect({{2, 2}, {4, 4}});
  EXPECT_TRUE(g.blocked({2, 2}));
  EXPECT_TRUE(g.blocked({4, 4}));
  EXPECT_TRUE(g.blocked({3, 3}));
  EXPECT_FALSE(g.blocked({5, 4}));
  // Clipping against the plane is silent.
  g.block_rect({{8, 8}, {20, 20}});
  EXPECT_TRUE(g.blocked({9, 9}));
}

TEST(RoutingGrid, TerminalOwnership) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.set_terminal({3, 3}, 7);
  EXPECT_TRUE(g.blocked({3, 3}));
  EXPECT_EQ(g.terminal_owner({3, 3}), 7);
  EXPECT_TRUE(g.enterable({3, 3}, 7));
  EXPECT_FALSE(g.enterable({3, 3}, 8));
  EXPECT_THROW(g.set_terminal({99, 0}, 1), std::invalid_argument);
}

TEST(RoutingGrid, Claims) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.set_claim({4, 4}, 2);
  EXPECT_EQ(g.claim_owner({4, 4}), 2);
  EXPECT_TRUE(g.enterable({4, 4}, 2));
  EXPECT_FALSE(g.enterable({4, 4}, 3));
  EXPECT_FALSE(g.passable({4, 4}, 3, true));
  g.clear_claim({4, 4});
  EXPECT_EQ(g.claim_owner({4, 4}), kNone);
  EXPECT_TRUE(g.enterable({4, 4}, 3));
}

TEST(RoutingGrid, OccupancyRules) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point pts[] = {{1, 5}, {8, 5}};  // horizontal run of net 0
  g.occupy_polyline(0, pts);
  EXPECT_EQ(g.h_net({4, 5}), 0);
  EXPECT_EQ(g.v_net({4, 5}), kNone);
  // Another net cannot run horizontally over it...
  EXPECT_FALSE(g.passable({4, 5}, 1, true));
  // ...but may cross vertically.
  EXPECT_TRUE(g.passable({4, 5}, 1, false));
  EXPECT_TRUE(g.crosses_at({4, 5}, 1, false));
  EXPECT_FALSE(g.crosses_at({4, 5}, 0, false));  // own net: no crossing
  // Nobody can put a corner on it, not even net 0 itself.
  EXPECT_FALSE(g.can_turn({4, 5}, 1));
  EXPECT_FALSE(g.can_turn({4, 5}, 0));
  EXPECT_TRUE(g.can_turn({4, 6}, 1));
  EXPECT_TRUE(g.occupied_by({4, 5}, 0));
  EXPECT_FALSE(g.occupied_by({4, 5}, 1));
}

TEST(RoutingGrid, CornerOccupiesBothOrientations) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point pts[] = {{1, 1}, {5, 1}, {5, 5}};  // L with corner at (5,1)
  g.occupy_polyline(0, pts);
  EXPECT_EQ(g.h_net({5, 1}), 0);
  EXPECT_EQ(g.v_net({5, 1}), 0);
  EXPECT_FALSE(g.passable({5, 1}, 1, true));
  EXPECT_FALSE(g.passable({5, 1}, 1, false));
}

TEST(RoutingGrid, OverlapThrows) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point a[] = {{1, 5}, {8, 5}};
  g.occupy_polyline(0, a);
  const geom::Point b[] = {{3, 5}, {6, 5}};
  EXPECT_THROW(g.occupy_polyline(1, b), std::logic_error);
  // Same net re-occupying is fine.
  g.occupy_polyline(0, b);
  // Crossing is fine.
  const geom::Point c[] = {{4, 2}, {4, 8}};
  g.occupy_polyline(1, c);
  EXPECT_EQ(g.h_net({4, 5}), 0);
  EXPECT_EQ(g.v_net({4, 5}), 1);
}

TEST(RoutingGrid, NonOrthogonalPolylineThrows) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point bad[] = {{0, 0}, {3, 3}};
  EXPECT_THROW(g.occupy_polyline(0, bad), std::invalid_argument);
}

TEST(RoutingGrid, CrossingCount) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point h[] = {{0, 4}, {9, 4}};
  const geom::Point v1[] = {{2, 0}, {2, 9}};
  const geom::Point v2[] = {{7, 0}, {7, 9}};
  g.occupy_polyline(0, h);
  g.occupy_polyline(1, v1);
  g.occupy_polyline(2, v2);
  for (const geom::Point p : {geom::Point{2, 4}, geom::Point{7, 4}}) {
    EXPECT_EQ(g.h_net(p), 0);
    EXPECT_EQ(g.v_net(p), p.x == 2 ? 1 : 2);
  }
}

/// The grid's obstacle model kept as five separate fields per point, with
/// each predicate written out on its own: the reference the packed cells
/// (h, v, gate, claim) must reproduce.
class ReferenceGrid {
 public:
  explicit ReferenceGrid(geom::Rect area)
      : area_(area),
        cells_(static_cast<size_t>(area.width() + 1) * (area.height() + 1)) {}

  void block(geom::Point p) {
    if (in(p)) at(p).blocked = true;
  }
  void block_rect(geom::Rect r) {
    for (int y = r.lo.y; y <= r.hi.y; ++y) {
      for (int x = r.lo.x; x <= r.hi.x; ++x) block({x, y});
    }
  }
  void set_terminal(geom::Point p, NetId n) {
    at(p).blocked = true;
    at(p).owner = n;
  }
  void set_claim(geom::Point p, NetId n) {
    if (in(p)) at(p).claim = n;
  }
  /// Occupies a straight run cell by cell, like RoutingGrid, stopping with
  /// `false` at the first foreign overlap.
  bool occupy(NetId n, geom::Point a, geom::Point b) {
    const bool horizontal = a.y == b.y;
    const geom::Point step = {a.x == b.x ? 0 : (b.x > a.x ? 1 : -1),
                              a.y == b.y ? 0 : (b.y > a.y ? 1 : -1)};
    if (a == b) return true;
    for (geom::Point p = a;; p += step) {
      NetId& slot = horizontal ? at(p).h : at(p).v;
      if (slot != kNone && slot != n) return false;
      slot = n;
      if (p == b) return true;
    }
  }

  bool blocked(geom::Point p) const { return !in(p) || at(p).blocked; }
  NetId terminal_owner(geom::Point p) const { return in(p) ? at(p).owner : kNone; }
  NetId claim_owner(geom::Point p) const { return in(p) ? at(p).claim : kNone; }
  NetId h_net(geom::Point p) const { return in(p) ? at(p).h : kNone; }
  NetId v_net(geom::Point p) const { return in(p) ? at(p).v : kNone; }
  bool enterable(geom::Point p, NetId n) const {
    if (!in(p)) return false;
    const Cell& c = at(p);
    if (c.blocked && c.owner != n) return false;
    return c.claim == kNone || c.claim == n;
  }
  bool passable(geom::Point p, NetId n, bool horizontal) const {
    return enterable(p, n) && (horizontal ? at(p).h : at(p).v) == kNone;
  }
  bool can_turn(geom::Point p, NetId n) const {
    return enterable(p, n) && at(p).h == kNone && at(p).v == kNone;
  }
  bool crosses_at(geom::Point p, NetId n, bool horizontal) const {
    if (!in(p)) return false;
    const NetId other = horizontal ? at(p).v : at(p).h;
    return other != kNone && other != n;
  }
  bool occupied_by(geom::Point p, NetId n) const {
    return in(p) && (at(p).h == n || at(p).v == n);
  }
  bool node_free(geom::Point p, NetId n) const {
    if (!in(p)) return false;
    const Cell& c = at(p);
    return (c.h == kNone || c.h == n) && (c.v == kNone || c.v == n);
  }

 private:
  struct Cell {
    NetId h = kNone;
    NetId v = kNone;
    NetId owner = kNone;
    NetId claim = kNone;
    bool blocked = false;
  };
  bool in(geom::Point p) const { return area_.contains(p); }
  size_t index(geom::Point p) const {
    return static_cast<size_t>(p.y - area_.lo.y) * (area_.width() + 1) +
           (p.x - area_.lo.x);
  }
  Cell& at(geom::Point p) { return cells_[index(p)]; }
  const Cell& at(geom::Point p) const { return cells_[index(p)]; }

  geom::Rect area_;
  std::vector<Cell> cells_;
};

TEST(RoutingGrid, PackedCellsMatchReferenceModel) {
  // Seeded random edit sequences, checking every predicate on every point
  // of the plane and its one-track rim outside after each edit.
  const geom::Rect area{{2, 1}, {9, 6}};
  const geom::Rect probe = area.expanded(1);
  for (unsigned seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto point_in = [&](geom::Rect r) {
      return geom::Point{pick(r.lo.x, r.hi.x), pick(r.lo.y, r.hi.y)};
    };
    RoutingGrid grid(area);
    ReferenceGrid ref(area);
    for (int step = 0; step < 60; ++step) {
      const NetId net = pick(0, 3);
      switch (pick(0, 6)) {
        case 0: {
          const geom::Point p = point_in(probe);
          grid.block(p);
          ref.block(p);
          break;
        }
        case 1: {
          const geom::Point a = point_in(probe);
          const geom::Rect r{a, {a.x + pick(0, 3), a.y + pick(0, 2)}};
          grid.block_rect(r);
          ref.block_rect(r);
          break;
        }
        case 2: {
          const geom::Point p = point_in(area);
          const NetId owner = pick(0, 4) == 0 ? kNone : net;
          grid.set_terminal(p, owner);
          ref.set_terminal(p, owner);
          break;
        }
        case 3: {
          const geom::Point p = point_in(probe);
          grid.set_claim(p, net);
          ref.set_claim(p, net);
          break;
        }
        case 4: {
          const geom::Point p = point_in(probe);
          grid.clear_claim(p);
          ref.set_claim(p, kNone);
          break;
        }
        default: {
          const geom::Point a = point_in(area);
          const geom::Point b = pick(0, 1) ? geom::Point{pick(area.lo.x, area.hi.x), a.y}
                                           : geom::Point{a.x, pick(area.lo.y, area.hi.y)};
          const geom::Point pts[] = {a, b};
          if (ref.occupy(net, a, b)) {
            grid.occupy_polyline(net, pts);
          } else {
            EXPECT_THROW(grid.occupy_polyline(net, pts), std::logic_error);
          }
          break;
        }
      }
      for (int y = probe.lo.y; y <= probe.hi.y; ++y) {
        for (int x = probe.lo.x; x <= probe.hi.x; ++x) {
          const geom::Point p{x, y};
          SCOPED_TRACE(::testing::Message() << "step " << step << " at " << p);
          ASSERT_EQ(grid.blocked(p), ref.blocked(p));
          ASSERT_EQ(grid.terminal_owner(p), ref.terminal_owner(p));
          ASSERT_EQ(grid.claim_owner(p), ref.claim_owner(p));
          ASSERT_EQ(grid.h_net(p), ref.h_net(p));
          ASSERT_EQ(grid.v_net(p), ref.v_net(p));
          for (NetId n = 0; n <= 3; ++n) {
            ASSERT_EQ(grid.enterable(p, n), ref.enterable(p, n)) << "net " << n;
            ASSERT_EQ(grid.can_turn(p, n), ref.can_turn(p, n)) << "net " << n;
            ASSERT_EQ(grid.node_free(p, n), ref.node_free(p, n)) << "net " << n;
            ASSERT_EQ(grid.occupied_by(p, n), ref.occupied_by(p, n)) << "net " << n;
            for (bool horizontal : {true, false}) {
              ASSERT_EQ(grid.passable(p, n, horizontal),
                        ref.passable(p, n, horizontal))
                  << "net " << n;
              ASSERT_EQ(grid.crosses_at(p, n, horizontal),
                        ref.crosses_at(p, n, horizontal))
                  << "net " << n;
            }
          }
        }
      }
    }
  }
}

TEST(RoutingGrid, BlockKeepsTerminalOwner) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.set_terminal({3, 3}, 7);
  g.block({3, 3});
  g.block_rect({{2, 2}, {4, 4}});
  EXPECT_EQ(g.terminal_owner({3, 3}), 7);
  EXPECT_TRUE(g.enterable({3, 3}, 7));
  // A terminal of no net is a wall for everyone.
  g.set_terminal({3, 3}, kNone);
  EXPECT_TRUE(g.blocked({3, 3}));
  EXPECT_EQ(g.terminal_owner({3, 3}), kNone);
  EXPECT_FALSE(g.enterable({3, 3}, 7));
}

// --- grid construction from a placed diagram --------------------------------

Network simple_net() {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");  // size 4x2, a at (0,1), y at (4,1)
  lib.instantiate(net, "buf", "b1");
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  return net;
}

TEST(BuildGrid, BlocksModulesAndOpensTerminals) {
  const Network net = simple_net();
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {10, 0});
  const RoutingGrid g = build_grid(dia, 3);
  EXPECT_EQ(g.area(), (geom::Rect{{-3, -3}, {17, 5}}));
  EXPECT_TRUE(g.blocked({2, 1}));    // inside module b0
  EXPECT_TRUE(g.blocked({0, 0}));    // boundary
  EXPECT_FALSE(g.blocked({5, 1}));   // channel
  // Terminal of net 0 at (4,1): blocked but owned.
  EXPECT_EQ(g.terminal_owner({4, 1}), 0);
  EXPECT_TRUE(g.enterable({4, 1}, 0));
  EXPECT_FALSE(g.enterable({4, 1}, 1));
}

TEST(BuildGrid, UnconnectedTerminalIsPlainObstacle) {
  Network net;
  net.add_module("m", "", {4, 2});
  net.add_terminal(0, "t", TermType::In, {0, 1});
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_TRUE(g.blocked({0, 1}));
  EXPECT_EQ(g.terminal_owner({0, 1}), kNone);
}

TEST(BuildGrid, SystemTerminalIsOwnedObstacle) {
  Network net;
  net.add_module("m", "", {4, 2});
  const TermId t = net.add_terminal(0, "y", TermType::Out, {4, 1});
  const TermId st = net.add_system_terminal("o", TermType::Out);
  const NetId n = net.add_net("n");
  net.connect(n, t);
  net.connect(n, st);
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_system_term(st, {8, 1});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_TRUE(g.blocked({8, 1}));
  EXPECT_EQ(g.terminal_owner({8, 1}), n);
}

TEST(BuildGrid, PreroutedNetsOccupy) {
  const Network net = simple_net();
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {10, 0});
  dia.add_polyline(0, {{4, 1}, {10, 1}});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_EQ(g.h_net({7, 1}), 0);
}

TEST(BuildGrid, RequiresPlacement) {
  const Network net = simple_net();
  Diagram dia(net);
  EXPECT_THROW(build_grid(dia, 2), std::invalid_argument);
}

}  // namespace
}  // namespace na
