// Per-net routing and the pass-1 loop, factored out of the route_all
// driver so the sharded driver shares one implementation.
//
// route_single_net reproduces the paper's per-net procedure exactly
// (initiation by nearest terminal pairs, then one expansion per remaining
// terminal toward the grown net) but against *any* RoutingGrid — the live
// one for route_all and the stitch pass, a clipped copy for a shard job.
// It occupies its own paths on that grid as it goes and never touches the
// Diagram; committing the polylines to the diagram (and the claimpoint
// bookkeeping around the call) stays with the drivers.
//
// DriverSetup is the state both drivers build before routing: the routing
// plane, the pending-terminal lists, and the claimpoint table of paper
// section 5.7, kept as one cell list per net so releasing or replaying a
// net's claims touches only that net's cells.
#pragma once

#include <vector>

#include "route/router.hpp"
#include "route/search_workspace.hpp"

namespace na::detail {

/// What routing one net produced: the connections committed to the grid
/// (in order — their paths become the diagram polylines) and the terminals
/// still unconnected.
struct NetTaskResult {
  std::vector<SearchResult> connections;
  std::vector<TermId> failed;
  int failed_searches = 0;     ///< engine searches that found no path
  long failed_expansions = 0;  ///< states those searches expanded
  int pocket_proofs = 0;       ///< failed searches the pocket proof ended
};

/// Routes as much of net `n` as possible on `grid`, starting from the
/// `todo` terminals.  Occupies every found path on `grid`.  With
/// `window >= 0` each connection of a grid-search engine first searches
/// inside the hull of its endpoints (or of the net's geometry) inflated by
/// `window` tracks, and falls back to the whole grid when that fails.
/// `known_failed` goes onto every search problem of the net
/// (SearchProblem::known_failed).
NetTaskResult route_single_net(RoutingGrid& grid, const Diagram& dia, NetId n,
                               std::vector<TermId> todo, const RouterOptions& opt,
                               bool has_geometry, SearchWorkspace& ws,
                               int window = -1, bool known_failed = false);

/// Driver state shared by route_all and the sharded driver.
struct DriverSetup {
  RoutingGrid grid;  ///< the live routing plane
  std::vector<std::vector<TermId>> pending;  ///< per net, terminals to connect
  std::vector<bool> has_geometry;
  /// Per net, the cells it holds a live claimpoint on.
  std::vector<std::vector<geom::Point>> claims;
  /// Per net, whether its routing is known to have failed before this
  /// run (route_all's `known_failed`); read by pass 1 (the retry pass
  /// hints every net it searches).
  std::vector<bool> known_failed;

  explicit DriverSetup(RoutingGrid g) : grid(std::move(g)) {}

  /// Releases net `n`'s remaining claimpoints (done when its routing
  /// starts).
  void release_claims(NetId n);
};

/// Re-claims on `grid` the escape track of terminal `t` of net `n` that
/// stayed unconnected, appending the cell to `claims` when the claim is
/// taken.  The live driver passes its own plane and `claims[n]`; a shard
/// job passes its clipped grid and the list its merge replays.
void restore_claim(RoutingGrid& grid, const Diagram& dia,
                   const RouterOptions& opt, TermId t, NetId n,
                   std::vector<geom::Point>& claims);

/// Builds the routing plane, the pending lists and the claimpoint table
/// for a placed diagram (the common preamble of both drivers).
DriverSetup prepare_driver(const Diagram& dia, const RouterOptions& opt,
                           const std::vector<bool>& known_failed = {});

/// Net processing order: the configured criterion.
std::vector<NetId> ordered_nets(const Diagram& dia, const RouterOptions& opt);

/// Adds a net-task result to the diagram and the report (the grid was
/// already updated by route_single_net).
void commit_connections(Diagram& dia, NetId n, NetTaskResult& res,
                        DriverSetup& setup, RouteReport& report);

/// The pass-1 loop: routes `nets` one at a time, in order, on the live
/// plane, searching with `window` and each net's `known_failed` as
/// route_single_net does.  Each net's claims are released when its
/// routing starts and the escape tracks of its still-unconnected
/// terminals are re-claimed after.
void route_nets(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& nets, RouteReport& report,
                SearchWorkspace& ws, int window = -1);

/// The section-5.7 retry pass: all remaining claims released, failed nets
/// re-tried in order on the live plane.  Every net it searches failed in
/// pass 1, so its searches carry the known-failed hint.
void retry_pass(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& order, RouteReport& report,
                SearchWorkspace& ws);

/// Final per-net accounting into the report.
void finish_report(Diagram& dia, DriverSetup& setup, RouteReport& report);

}  // namespace na::detail
