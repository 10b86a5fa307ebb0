// Cross-validation of the two line-expansion formulations: the unit-step
// lexicographic search (line_expansion_search) and the segment/wavefront
// form of paper sections 5.5/5.6 (segment_expansion_search) must agree on
// reachability and on the minimum bend count everywhere, and the segment
// form's paths must be geometrically committable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/facing.hpp"
#include "gen/life.hpp"
#include "route/dijkstra.hpp"
#include "route/router.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

SearchProblem p2p(NetId net, geom::Point from, std::optional<geom::Dir> from_dir,
                  geom::Point to, std::optional<geom::Dir> to_facing) {
  SearchProblem p;
  p.net = net;
  p.starts = {{from, from_dir}};
  p.target = SearchTarget{to, to_facing};
  return p;
}

TEST(SegmentExpansion, StraightAndOneBend) {
  RoutingGrid g({{0, 0}, {20, 20}});
  auto r = segment_expansion_search(
      g, p2p(0, {2, 5}, geom::Dir::Right, {15, 5}, geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 0);
  EXPECT_EQ(r->cost.length, 13);
  EXPECT_EQ(r->path, (std::vector<geom::Point>{{2, 5}, {15, 5}}));

  r = segment_expansion_search(
      g, p2p(0, {2, 2}, geom::Dir::Right, {10, 10}, geom::Dir::Down));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 1);
  EXPECT_EQ(r->cost.length, 16);
}

TEST(SegmentExpansion, DetourBends) {
  RoutingGrid g({{0, 0}, {20, 20}});
  g.block_rect({{8, 0}, {10, 12}});
  const auto r = segment_expansion_search(
      g, p2p(0, {2, 5}, geom::Dir::Right, {16, 5}, geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 4);  // same as the unit-step engine's result
}

TEST(SegmentExpansion, NoPath) {
  RoutingGrid g({{0, 0}, {10, 10}});
  g.block_rect({{5, 0}, {5, 10}});
  EXPECT_FALSE(segment_expansion_search(
                   g, p2p(0, {2, 5}, std::nullopt, {8, 5}, std::nullopt))
                   .has_value());
}

TEST(SegmentExpansion, JoinOwnNet) {
  RoutingGrid g({{0, 0}, {10, 10}});
  const geom::Point own[] = {{2, 8}, {8, 8}};
  g.occupy_polyline(0, own);
  SearchProblem p;
  p.net = 0;
  p.starts = {{{5, 2}, geom::Dir::Up}};
  p.join_own_net = true;
  const auto r = segment_expansion_search(g, p);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 0);
  EXPECT_EQ(r->path.back(), (geom::Point{5, 8}));
}

class SegmentEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(SegmentEquivalence, AgreesWithUnitStepEngine) {
  const unsigned seed = GetParam();
  RoutingGrid g({{0, 0}, {18, 18}});
  unsigned state = seed * 2654435761u + 3;
  auto rnd = [&]() { return state = state * 1664525u + 1013904223u; };
  for (int i = 0; i < 12; ++i) {
    const int x = static_cast<int>(rnd() % 15) + 1;
    const int y = static_cast<int>(rnd() % 15) + 1;
    g.block_rect({{x, y},
                  {x + static_cast<int>(rnd() % 3), y + static_cast<int>(rnd() % 3)}});
  }
  // A few foreign nets to exercise crossing/turn rules.
  for (int i = 0; i < 3; ++i) {
    const int c = static_cast<int>(rnd() % 17) + 1;
    std::vector<geom::Point> pl{{c, 0}, {c, 17}};
    bool free_track = true;
    for (int y = 0; y <= 17; ++y) {
      if (g.blocked({c, y}) || g.v_net({c, y}) != kNone) free_track = false;
    }
    if (free_track) g.occupy_polyline(100 + i, pl);
  }
  for (const auto& [from, to] :
       std::vector<std::pair<geom::Point, geom::Point>>{
           {{0, 0}, {18, 18}}, {{0, 18}, {18, 0}}, {{0, 9}, {18, 9}}}) {
    if (!g.node_free(from, 0) || !g.node_free(to, 0)) continue;
    const SearchProblem p = p2p(0, from, std::nullopt, to, std::nullopt);
    const auto unit = line_expansion_search(g, p);
    const auto segm = segment_expansion_search(g, p);
    ASSERT_EQ(unit.has_value(), segm.has_value())
        << "seed " << seed << " " << geom::to_string(from);
    if (unit && segm) {
      EXPECT_EQ(unit->cost.bends, segm->cost.bends)
          << "seed " << seed << " " << geom::to_string(from) << "->"
          << geom::to_string(to);
      // The segment path must be committable over the same obstacles.
      RoutingGrid g2 = g;
      EXPECT_NO_THROW(g2.occupy_polyline(0, segm->path));
    }
  }
}

TEST_P(SegmentEquivalence, AgreesOnLargePlanesPastThePocketCheck) {
  // 64x64 planes with wall rings (some closed, some with a one-cell door),
  // terminals inside and outside them, and foreign wires running along
  // terminal fronts, so that many searches pop more than kPocketCheckAt
  // states and the unit-step engine's pocket proof ends some of them.  The
  // segment engine has no proof, so it is the reference for existence and
  // bends.
  const unsigned seed = GetParam();
  unsigned state = seed * 2246822519u + 7;
  auto pick = [&](int lo, int hi) {
    state = state * 1664525u + 1013904223u;
    return lo +
           static_cast<int>((state >> 8) % static_cast<unsigned>(hi - lo + 1));
  };
  RoutingGrid g({{0, 0}, {63, 63}});
  std::vector<geom::Point> inside;  // one cell inside each ring
  for (int i = 0; i < 3; ++i) {
    const geom::Point lo{pick(2, 40), pick(2, 40)};
    const geom::Rect ring{lo, {lo.x + pick(6, 20), lo.y + pick(6, 20)}};
    const bool door = pick(0, 1) == 1;
    for (int x = ring.lo.x; x <= ring.hi.x; ++x) {
      if (!(door && x == ring.center().x)) g.block({x, ring.lo.y});
      g.block({x, ring.hi.y});
    }
    for (int y = ring.lo.y; y <= ring.hi.y; ++y) {
      g.block({ring.lo.x, y});
      g.block({ring.hi.x, y});
    }
    inside.push_back(ring.center());
  }
  for (int i = 0; i < 6; ++i) {
    const geom::Point a{pick(1, 60), pick(1, 60)};
    g.block_rect({a, {a.x + pick(0, 2), a.y + pick(0, 2)}});
  }
  // Lays a foreign wire from `p` along `d` over free cells, if the first
  // cell is free.
  NetId next_net = 100;
  auto wire = [&](geom::Point p, geom::Dir d, int len) {
    std::vector<geom::Point> run;
    for (geom::Point q = p; run.size() < static_cast<size_t>(len);
         q += geom::delta(d)) {
      if (g.blocked(q) || g.h_net(q) != kNone || g.v_net(q) != kNone) break;
      run.push_back(q);
    }
    if (run.size() >= 2) {
      g.occupy_polyline(next_net++, std::vector{run.front(), run.back()});
    }
  };
  for (int i = 0; i < 3; ++i) {
    const bool horizontal = pick(0, 1) == 1;
    const int at = pick(1, 62);
    wire(horizontal ? geom::Point{0, at} : geom::Point{at, 0},
         horizontal ? geom::Dir::Right : geom::Dir::Up, 64);
  }
  // Terminal points: ring interiors and seeded free cells, each with a
  // seeded facing (or none).
  std::vector<geom::Point> points = inside;
  while (points.size() < 8) points.push_back({pick(0, 63), pick(0, 63)});
  auto facing_of = [&]() -> std::optional<geom::Dir> {
    const int d = pick(-1, 3);
    if (d < 0) return std::nullopt;
    return static_cast<geom::Dir>(d);
  };
  // A faced terminal is a module terminal: walls on its other three sides.
  std::vector<std::optional<geom::Dir>> facing;
  for (const geom::Point& p : points) {
    facing.push_back(facing_of());
    if (g.blocked(p) || g.h_net(p) != kNone || g.v_net(p) != kNone) continue;
    g.set_terminal(p, 0);
    if (!facing.back()) continue;
    for (geom::Dir d : geom::kAllDirs) {
      if (d != *facing.back()) g.block(p + geom::delta(d));
    }
  }
  // Half of the faced terminals get a foreign wire along their front.
  for (size_t i = 0; i < points.size(); ++i) {
    if (facing[i] && pick(0, 1) == 1) {
      wire(points[i] + geom::delta(*facing[i]), *facing[i], pick(2, 12));
    }
  }
  // One join problem per plane: own geometry inside the first ring, next
  // to its terminal.
  const geom::Point own_at = inside.front() + geom::Point{-2, 1};
  bool own_placed = false;
  if (g.node_free(own_at, 0) && !g.blocked(own_at) &&
      g.node_free(own_at + geom::Point{1, 0}, 0) &&
      !g.blocked(own_at + geom::Point{1, 0})) {
    g.occupy_polyline(0, std::vector{own_at, own_at + geom::Point{1, 0}});
    own_placed = true;
  }

  detail::SearchWorkspace ws;
  int past_check = 0;
  int proofs = 0;
  auto compare = [&](SearchProblem p, const std::string& what) {
    const auto unit =
        detail::grid_search(g, p, detail::CostMode::BendsCrossingsLength, &ws);
    // The segment engine counts every cell of every sweep, which passes
    // the default cap on these planes.
    p.max_expansions = 1'000'000'000;
    const auto segm = segment_expansion_search(g, p);
    ASSERT_EQ(unit.has_value(), segm.has_value())
        << "seed " << seed << " " << what;
    if (unit) {
      past_check += unit->expansions > detail::kPocketCheckAt ? 1 : 0;
      EXPECT_EQ(unit->cost.bends, segm->cost.bends)
          << "seed " << seed << " " << what;
    } else {
      past_check += ws.last_failure().expansions >= detail::kPocketCheckAt ? 1 : 0;
      proofs += ws.last_failure().pocket_proof ? 1 : 0;
    }
  };
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      const geom::Point from = points[i];
      const geom::Point to = points[j];
      if (i == j || from == to || g.terminal_owner(from) != 0 ||
          g.terminal_owner(to) != 0) {
        continue;
      }
      compare(p2p(0, from, facing[i], to, facing[j]),
              geom::to_string(from) + "->" + geom::to_string(to));
    }
    if (own_placed && g.terminal_owner(points[i]) == 0) {
      SearchProblem join;
      join.net = 0;
      join.starts = {{points[i], facing[i]}};
      join.join_own_net = true;
      compare(join, geom::to_string(points[i]) + "->own");
    }
  }
  EXPECT_GT(past_check, 0) << "seed " << seed;
  EXPECT_GT(proofs, 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentEquivalence, ::testing::Range(1u, 16u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(SegmentExpansion, DrivesFullDiagramRouting) {
  // The whole driver works with the segment engine and produces a valid,
  // fully routed diagram on a real workload.
  const gen::FacingOptions fopt{3, 6, 6, 5};
  const Network net = gen::facing_pairs(fopt);
  Diagram dia(net);
  gen::facing_placement(dia, fopt);
  RouterOptions opt;
  opt.engine = Engine::SegmentExpansion;
  opt.margin = 6;
  const RouteReport r = route_all(dia, opt);
  EXPECT_EQ(r.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

}  // namespace
}  // namespace na
