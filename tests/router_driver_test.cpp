// Tests for the whole-diagram routing driver: initiation + expansion,
// multi-point nets, claimpoints (with the figure 5.10-5.15 scenarios),
// prerouted nets, retry pass, net ordering and windowed searches.
#include <gtest/gtest.h>

#include "gen/life.hpp"
#include "netlist/module_library.hpp"
#include "route/net_order.hpp"
#include "route/net_task.hpp"
#include "route/router.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

/// Two modules facing each other with `tracks` free columns between them.
struct FacingPair {
  Network net;
  Diagram dia{net};

  explicit FacingPair(int tracks = 6) {
    const ModuleLibrary lib = ModuleLibrary::standard_cells();
    lib.instantiate(net, "buf", "b0");
    lib.instantiate(net, "buf", "b1");
    const NetId n = net.add_net("n0");
    net.connect(n, *net.term_by_name(0, "y"));
    net.connect(n, *net.term_by_name(1, "a"));
    dia = Diagram(net);
    dia.place_module(0, {0, 0});
    dia.place_module(1, {4 + tracks + 1, 0});
  }
};

TEST(RouteAll, SimpleStraight) {
  FacingPair f;
  const RouteReport r = route_all(f.dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_EQ(r.nets_failed, 0);
  EXPECT_TRUE(f.dia.route(0).routed);
  EXPECT_EQ(f.dia.route(0).bend_count(), 0);
  EXPECT_TRUE(validate_diagram(f.dia, true).empty());
}

TEST(RouteAll, MultipointNet) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "src");
  lib.instantiate(net, "buf", "d0");
  lib.instantiate(net, "buf", "d1");
  lib.instantiate(net, "buf", "d2");
  const NetId n = net.add_net("fan");
  net.connect(n, *net.term_by_name(0, "y"));
  for (int i = 1; i < 4; ++i) net.connect(n, *net.term_by_name(i, "a"));
  Diagram dia(net);
  dia.place_module(0, {0, 10});
  dia.place_module(1, {15, 0});
  dia.place_module(2, {15, 10});
  dia.place_module(3, {15, 20});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_EQ(r.connections_made, 3);  // init + 2 expansions
  EXPECT_TRUE(validate_diagram(dia, true).empty());
  // A fan-out of three sinks needs branch points.
  EXPECT_GE(dia.route(n).polylines.size(), 3u);
}

TEST(RouteAll, SystemTerminals) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  const TermId in = net.add_system_terminal("x", TermType::In);
  const NetId n = net.add_net("n");
  net.connect(n, in);
  net.connect(n, *net.term_by_name(0, "a"));
  Diagram dia(net);
  dia.place_module(0, {5, 5});
  dia.place_system_term(in, {0, 6});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(RouteAll, TwoNetsCross) {
  // Nets forced to cross: NW->SE and SW->NE.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "nw");
  lib.instantiate(net, "buf", "se");
  lib.instantiate(net, "buf", "sw");
  lib.instantiate(net, "buf", "ne");
  const NetId n0 = net.add_net("a");
  net.connect(n0, *net.term_by_name(0, "y"));
  net.connect(n0, *net.term_by_name(1, "a"));
  const NetId n1 = net.add_net("b");
  net.connect(n1, *net.term_by_name(2, "y"));
  net.connect(n1, *net.term_by_name(3, "a"));
  Diagram dia(net);
  dia.place_module(0, {0, 20});
  dia.place_module(1, {20, 0});
  dia.place_module(2, {0, 0});
  dia.place_module(3, {20, 20});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 2);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(RouteAll, PreroutedNetKept) {
  FacingPair f;
  const std::vector<geom::Point> pre{{4, 1}, {7, 1}, {7, 4}, {11, 4},
                                     {11, 1}};  // scenic prerouted route
  f.dia.add_polyline(0, pre);
  f.dia.route(0).prerouted = true;
  const RouteReport r = route_all(f.dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_EQ(r.connections_made, 0);  // nothing new to connect
  EXPECT_EQ(f.dia.route(0).polylines.size(), 1u);
  EXPECT_EQ(f.dia.route(0).polylines[0], pre);
}

TEST(RouteAll, PartialPrerouteExtended) {
  // Three-terminal net with one leg prerouted; the driver must add the rest.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "src");
  lib.instantiate(net, "buf", "d0");
  lib.instantiate(net, "buf", "d1");
  const NetId n = net.add_net("fan");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  net.connect(n, *net.term_by_name(2, "a"));
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {15, 0});
  dia.place_module(2, {15, 10});
  dia.add_polyline(n, {{4, 1}, {15, 1}});  // src -> d0 already drawn
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_EQ(r.connections_made, 1);  // only d1 needed work
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(RouteAll, ReportsUnroutable) {
  // Target completely walled in by a third module ring: no path.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  lib.instantiate(net, "buf", "b1");
  net.add_module("wall_l", "", {2, 30});
  net.add_module("wall_r", "", {2, 30});
  net.add_module("wall_t", "", {30, 2});
  net.add_module("wall_b", "", {30, 2});
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  Diagram dia(net);
  dia.place_module(0, {10, 10});  // inside the walls
  dia.place_module(1, {60, 10});  // outside
  dia.place_module(2, {0, 0});
  dia.place_module(3, {26, 0});
  dia.place_module(4, {0, 28});
  dia.place_module(5, {0, -2});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_failed, 1);
  EXPECT_EQ(r.failed_nets, std::vector<NetId>{n});
  EXPECT_FALSE(dia.route(n).routed);
}

// --- claimpoints: the figure 5.10/5.12 scenario ---------------------------------

/// Two modules MO and M1 with a two-track channel between them; terminals
/// A,B (net ab) on the upper track's level and C,D (net cd) with C facing
/// the channel — without claims, routing ab first may block C (fig 5.10);
/// with claims C's escape survives (fig 5.12).
struct ClaimScenario {
  Network net;
  NetId ab, cd;
  Diagram dia{net};

  ClaimScenario() {
    const ModuleId m0 = net.add_module("M0", "", {10, 10});
    const TermId a = net.add_terminal(m0, "A", TermType::Out, {10, 8});
    const TermId c = net.add_terminal(m0, "C", TermType::Out, {10, 4});
    const ModuleId m1 = net.add_module("M1", "", {10, 10});
    const TermId b = net.add_terminal(m1, "B", TermType::In, {0, 8});
    const TermId d = net.add_terminal(m1, "D", TermType::In, {0, 2});
    ab = net.add_net("ab");
    net.connect(ab, a);
    net.connect(ab, b);
    cd = net.add_net("cd");
    net.connect(cd, c);
    net.connect(cd, d);
    dia = Diagram(net);
    dia.place_module(m0, {0, 0});
    dia.place_module(m1, {12, 0});  // one free column at x=11
  }
};

TEST(Claimpoints, SingleChannelSharing) {
  // With a single free column between the modules, both nets must use it;
  // claims force ab to leave room where cd's terminals claim their track.
  ClaimScenario s;
  RouterOptions opt;
  opt.use_claimpoints = true;
  const RouteReport r = route_all(s.dia, opt);
  // cd's claims at (11,4)/(11,2) block ab from bending there, but ab can
  // still cross the channel straight: both route.
  EXPECT_EQ(r.nets_routed, 2) << "failed nets: " << r.nets_failed;
  EXPECT_TRUE(validate_diagram(s.dia, true).empty());
}

TEST(Claimpoints, RetryPassRecoversBlockedNets) {
  // Force a failure in pass 1 by disabling claims; the retry pass (claims
  // all gone, more of the plane occupied the same way) still helps in some
  // configurations — at minimum the two passes never make things worse.
  ClaimScenario s;
  RouterOptions no_claims;
  no_claims.use_claimpoints = false;
  no_claims.retry_failed = false;
  Diagram d1 = s.dia;
  const RouteReport r1 = route_all(d1, no_claims);
  RouterOptions with_retry = no_claims;
  with_retry.retry_failed = true;
  Diagram d2 = s.dia;
  const RouteReport r2 = route_all(d2, with_retry);
  EXPECT_GE(r2.nets_routed, r1.nets_routed);
}

TEST(NetOrder, Criteria) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  lib.instantiate(net, "buf", "b1");
  lib.instantiate(net, "buf", "b2");
  const NetId short_net = net.add_net("short");
  net.connect(short_net, *net.term_by_name(0, "y"));
  net.connect(short_net, *net.term_by_name(1, "a"));
  const NetId long_net = net.add_net("long");
  net.connect(long_net, *net.term_by_name(1, "y"));
  net.connect(long_net, *net.term_by_name(2, "a"));
  net.connect(long_net, *net.term_by_name(0, "a"));  // 3 terminals, wide span
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {10, 0});
  dia.place_module(2, {40, 0});

  EXPECT_EQ(order_nets(dia, NetOrderCriterion::AsGiven),
            (std::vector<NetId>{short_net, long_net}));
  EXPECT_EQ(order_nets(dia, NetOrderCriterion::ShortestFirst),
            (std::vector<NetId>{short_net, long_net}));
  EXPECT_EQ(order_nets(dia, NetOrderCriterion::LongestFirst),
            (std::vector<NetId>{long_net, short_net}));
  EXPECT_EQ(order_nets(dia, NetOrderCriterion::FewestTermsFirst),
            (std::vector<NetId>{short_net, long_net}));
  EXPECT_EQ(order_nets(dia, NetOrderCriterion::MostTermsFirst),
            (std::vector<NetId>{long_net, short_net}));
}

TEST(RouteAll, EnginesProduceValidDiagrams) {
  for (Engine e : {Engine::LineExpansion, Engine::Lee, Engine::Hightower}) {
    FacingPair f;
    RouterOptions opt;
    opt.engine = e;
    const RouteReport r = route_all(f.dia, opt);
    EXPECT_EQ(r.nets_routed, 1) << "engine " << static_cast<int>(e);
    EXPECT_TRUE(validate_diagram(f.dia, true).empty());
  }
}

TEST(RouteAll, LengthFirstOrderShortens) {
  // With -s (length before crossings) the total wire length can only get
  // shorter or stay equal on a simple two-net crossing field.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  lib.instantiate(net, "buf", "b1");
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  Diagram base(net);
  base.place_module(0, {0, 0});
  base.place_module(1, {20, 6});

  Diagram d1 = base;
  RouterOptions crossings_first;
  route_all(d1, crossings_first);
  Diagram d2 = base;
  RouterOptions length_first;
  length_first.order = CostOrder::BendsLengthCrossings;
  route_all(d2, length_first);
  EXPECT_LE(d2.route(n).total_length(), d1.route(n).total_length());
}

// ----- windowed searches --------------------------------------------------------

/// route_all's passes with pass 1 searching inside `window` tracks around
/// each connection's hull, the way the sharded driver's residual pass does.
RouteReport route_windowed(Diagram& dia, const RouterOptions& opt, int window,
                           const std::vector<bool>& known_failed = {}) {
  detail::DriverSetup setup = detail::prepare_driver(dia, opt, known_failed);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt);
  RouteReport report;
  detail::SearchWorkspace ws;
  detail::route_nets(dia, opt, setup, order, report, ws, window);
  detail::retry_pass(dia, opt, setup, order, report, ws);
  detail::finish_report(dia, setup, report);
  return report;
}

TEST(WindowedSearch, DriverFallsBackToFullPlane) {
  // A detour forced far outside the endpoint hull: the windowed first
  // attempt fails, the full-plane retry must still connect the net.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  lib.instantiate(net, "buf", "b1");
  net.add_module("wall", "", {2, 40});
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  Diagram dia(net);
  dia.place_module(0, {0, 18});
  dia.place_module(1, {20, 18});
  dia.place_module(2, {9, 0});  // wall spanning y=0..40 between them
  RouterOptions opt;
  opt.margin = 4;
  const RouteReport r = route_windowed(dia, opt, 1);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_EQ(r.retried_connections, 0);  // pass 1's fallback connected it
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(WindowedSearch, LifeStillRoutesEverything) {
  // The LIFE network hand-placed: the figure 6.6 workload.
  const Network net = gen::life_network();
  Diagram placed(net);
  gen::life_hand_placement(placed);
  RouterOptions opt;
  opt.margin = 12;
  opt.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  Diagram baseline = placed;
  const RouteReport base = route_all(baseline, opt);
  Diagram dia = placed;
  const RouteReport r = route_windowed(dia, opt, 8);
  // Windowed routing may pick different (window-local) optima but must not
  // lose nets: the full-plane fallback guarantees completeness.
  EXPECT_EQ(r.nets_routed, base.nets_routed);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}


// ----- the known-failed hint ------------------------------------------------------

TEST(KnownFailed, HintKeepsTheDiagramAndTheSearches) {
  // The hand-placed LIFE at a narrow margin leaves nets unrouted.  Marking
  // every net known-failed, with the sequential driver and with windowed
  // pass-1 searches, changes no polyline and no search count: only the
  // failed searches' effort may drop.
  const Network net = gen::life_network();
  Diagram placed(net);
  gen::life_hand_placement(placed);
  RouterOptions opt;
  opt.margin = 1;
  const std::vector<bool> all(net.net_count(), true);
  for (int window : {-1, 8}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    Diagram plain = placed;
    Diagram hinted = placed;
    const RouteReport a = route_windowed(plain, opt, window);
    const RouteReport b = route_windowed(hinted, opt, window, all);
    ASSERT_GT(a.failed_searches, 0);
    for (NetId n = 0; n < net.net_count(); ++n) {
      EXPECT_EQ(hinted.route(n).polylines, plain.route(n).polylines) << n;
    }
    EXPECT_EQ(b.nets_routed, a.nets_routed);
    EXPECT_EQ(b.connections_made, a.connections_made);
    EXPECT_EQ(b.retried_connections, a.retried_connections);
    EXPECT_EQ(b.total_expansions, a.total_expansions);
    EXPECT_EQ(b.failed_searches, a.failed_searches);
    EXPECT_EQ(b.failed_nets, a.failed_nets);
    EXPECT_LT(b.failed_expansions, a.failed_expansions);
    EXPECT_GT(b.pocket_proofs, a.pocket_proofs);
  }
  // route_all takes the same hint, indexed by net.
  Diagram plain = placed;
  Diagram hinted = placed;
  const RouteReport a = route_all(plain, opt);
  const RouteReport b = route_all(hinted, opt, all);
  for (NetId n = 0; n < net.net_count(); ++n) {
    EXPECT_EQ(hinted.route(n).polylines, plain.route(n).polylines) << n;
  }
  EXPECT_EQ(b.failed_searches, a.failed_searches);
  EXPECT_EQ(b.total_expansions, a.total_expansions);
}

}  // namespace
}  // namespace na
