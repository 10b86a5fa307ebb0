// Patch routing — layer 3 of the incremental regeneration engine.
//
// Keeps the drawn geometry of every *clean* net (same terminal set, every
// terminal at the same absolute position, fully routed in the cached
// diagram) and re-routes only the rest: nets the diff changed, nets of
// re-placed modules, nets whose kept path would now collide with a module
// that appeared or moved (the scrub), and nets that had failed before.
//
// Re-routed nets are not scrubbed wholesale: the polylines that are still
// valid (no collision with an appeared/moved symbol, no contact with a
// stale terminal position) survive as partial prerouted geometry, reduced
// to their largest connected figure, and the route pass merely *attaches*
// the open terminals to it.  Adding one terminal to a global net is then a
// local insertion near the new pin instead of a whole-plane re-search.
//
// The actual searching is the ordinary route_all driver (surviving
// geometry acts as obstacles and as join targets for its own net, as
// prerouted nets do), so the patch pass inherits claimpoints and the
// section-5.7 retry pass unchanged.
#pragma once

#include "incremental/netlist_diff.hpp"
#include "route/router.hpp"

namespace na {

struct PatchRouteResult {
  /// Whole-diagram report from the underlying route_all pass.  Note that
  /// `nets_routed` counts kept nets too (they end the pass fully
  /// connected); the patch-specific counters below separate the work.
  RouteReport report;
  int nets_kept = 0;      ///< clean nets whose geometry survived verbatim
  int nets_rerouted = 0;  ///< nets (re)routed by this pass
  int nets_extended = 0;  ///< rerouted nets that kept partial geometry
  int cells_scrubbed = 0; ///< grid track cells of stale geometry discarded
  /// Hull of everything the patch actually touched: footprints of modules
  /// that appeared or moved, system terminals that moved, and the old and
  /// new geometry of every net this pass (re)routed or scrubbed.  Empty
  /// when the update changed no geometry.  RegenSession validates only
  /// this region (validate_region) instead of the whole diagram.
  geom::Rect dirty_region;
};

/// Patch-routes `dia` (placed, unrouted) against the cached `old_dia`.
PatchRouteResult patch_route(Diagram& dia, const Diagram& old_dia,
                             const NetlistDiff& diff, const RouterOptions& opt);

}  // namespace na
