// Tests for the global-routing substrate (section 5.2.1): capacity
// derivation, tree connectivity per net, congestion accounting, and
// bottleneck avoidance.
#include <gtest/gtest.h>

#include <queue>

#include "gen/controller.hpp"
#include "gen/life.hpp"
#include "gen/random_net.hpp"
#include "netlist/module_library.hpp"
#include "place/placer.hpp"
#include "route/global.hpp"

namespace na {
namespace {

Diagram placed_controller() {
  static const Network* net = new Network(gen::controller_network());
  Diagram dia(*net);
  PlacerOptions opt;
  opt.max_part_size = 5;
  opt.max_connections = 8;
  place(dia, opt);
  return dia;
}

TEST(GlobalRoute, GridDimensions) {
  const Diagram dia = placed_controller();
  GlobalRouteOptions opt;
  opt.gcell_size = 8;
  const GlobalRouteResult r = global_route(dia, opt);
  EXPECT_GT(r.cols, 1);
  EXPECT_GT(r.rows, 1);
  EXPECT_EQ(r.h_capacity.size(),
            static_cast<size_t>(r.cols) * (r.rows - 1));
  EXPECT_EQ(r.v_capacity.size(),
            static_cast<size_t>(r.cols - 1) * r.rows);
}

TEST(GlobalRoute, EveryNetAssigned) {
  const Diagram dia = placed_controller();
  const GlobalRouteResult r = global_route(dia);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.assigned, static_cast<int>(r.nets.size()));
  EXPECT_EQ(r.assigned, dia.network().net_count());
}

TEST(GlobalRoute, TreesConnectAllPins) {
  const Diagram dia = placed_controller();
  GlobalRouteOptions opt;
  opt.gcell_size = 6;
  const GlobalRouteResult r = global_route(dia, opt);
  const Network& net = dia.network();
  const int g = opt.gcell_size;
  for (const GlobalNetRoute& gr : r.nets) {
    ASSERT_TRUE(gr.routed);
    // Gather the tree's gcells + the pins' gcells; BFS over segments must
    // reach every pin gcell from the first.
    std::vector<geom::Point> pins;
    for (TermId t : net.net(gr.net).terms) {
      const geom::Point p = dia.term_pos(t);
      pins.push_back({(p.x - r.area.lo.x) / g, (p.y - r.area.lo.y) / g});
    }
    auto key = [&](geom::Point c) { return c.y * r.cols + c.x; };
    std::vector<std::vector<int>> adj(static_cast<size_t>(r.cols) * r.rows);
    for (const GlobalSegment& s : gr.segments) {
      adj[key(s.from)].push_back(key(s.to));
      adj[key(s.to)].push_back(key(s.from));
    }
    std::vector<bool> seen(adj.size(), false);
    std::queue<int> frontier;
    frontier.push(key(pins[0]));
    seen[key(pins[0])] = true;
    while (!frontier.empty()) {
      const int cur = frontier.front();
      frontier.pop();
      for (int nxt : adj[cur]) {
        if (!seen[nxt]) {
          seen[nxt] = true;
          frontier.push(nxt);
        }
      }
    }
    for (const geom::Point pin : pins) {
      EXPECT_TRUE(seen[key(pin)])
          << "net " << net.net(gr.net).name << " pin gcell unreached";
    }
  }
}

TEST(GlobalRoute, DemandMatchesSegments) {
  const Diagram dia = placed_controller();
  const GlobalRouteResult r = global_route(dia);
  long demand_sum = 0;
  for (int d : r.h_demand) demand_sum += d;
  for (int d : r.v_demand) demand_sum += d;
  long seg_count = 0;
  for (const GlobalNetRoute& gr : r.nets) seg_count += gr.segments.size();
  EXPECT_EQ(demand_sum, seg_count);
}

TEST(GlobalRoute, ModuleWallsReduceCapacity) {
  // A solid wall of modules between two halves: boundaries crossing the
  // wall must have (near) zero capacity.
  Network net;
  net.add_module("wall", "", {4, 40});
  Diagram dia(net);
  dia.place_module(0, {20, 0});
  GlobalRouteOptions opt;
  opt.gcell_size = 8;
  const GlobalRouteResult r = global_route(dia, opt);
  // Vertical boundaries at the wall's x range have less capacity than the
  // open ones.
  int min_cap = std::numeric_limits<int>::max();
  int max_cap = 0;
  for (int c : r.v_capacity) {
    min_cap = std::min(min_cap, c);
    max_cap = std::max(max_cap, c);
  }
  EXPECT_LT(min_cap, max_cap);
}

TEST(GlobalRoute, CongestionPushesNetsApart) {
  // Many parallel nets across one narrow gap: with overflow pricing the
  // max boundary congestion stays below the all-through-one-edge worst
  // case whenever alternative boundaries exist.
  gen::RandomNetOptions gopt;
  gopt.modules = 16;
  gopt.extra_nets = 14;
  gopt.seed = 9;
  const Network net = gen::random_network(gopt);
  Diagram dia(net);
  PlacerOptions popt;
  popt.max_part_size = 4;
  place(dia, popt);
  GlobalRouteOptions on;
  const GlobalRouteResult with_pricing = global_route(dia, on);
  GlobalRouteOptions off = on;
  off.overflow_cost = 0;  // pure shortest path, no avoidance
  const GlobalRouteResult without = global_route(dia, off);
  EXPECT_LE(with_pricing.total_overflow, without.total_overflow);
}

TEST(GlobalRoute, LifeBoardStats) {
  const Network net = gen::life_network();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  const GlobalRouteResult r = global_route(dia);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.assigned, 222);
  EXPECT_GT(r.max_congestion, 0);
}

TEST(GlobalRoute, EmptyDiagram) {
  Network net;
  Diagram dia(net);
  const GlobalRouteResult r = global_route(dia);
  EXPECT_EQ(r.cols, 0);
  EXPECT_TRUE(r.nets.empty());
}

}  // namespace
}  // namespace na
