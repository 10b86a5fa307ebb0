// Independent geometric validity checker for finished diagrams.
//
// This stands in for the paper's ESCHER simulation check (section 6: "to
// check whether the routing has been done correctly, the schematic diagram
// has been simulated") — instead of simulating, we verify the property the
// simulation established: every routed net's drawn geometry actually
// connects exactly its terminals, and no drawing rule is violated.
//
// Checked rules (paper sections 3.2 / 5.3 postconditions):
//   * every module and system terminal is placed; no two symbols overlap;
//   * net paths are orthogonal chains;
//   * nets never enter a module symbol except at their own terminals, and
//     never touch a foreign system terminal;
//   * two different nets share a point only as a perpendicular crossing
//     where both run straight through (no overlap, no corner contact);
//   * every routed net's polylines form one connected figure containing
//     all of the net's terminal positions.
//
// The checker is implemented independently of RoutingGrid (one
// geom::PointTable over the drawn geometry, a geom::RectIndex over the
// symbol rectangles) so it can serve as an oracle for the router.  Expected
// cost is O(wire cells + symbols) per call, and so is memory: the point
// table is sized once from the cell count of the nets in scope, never from
// the diagram's extent.
//
// Report order: placement issues; then the walk's reports (unrouted nets,
// non-orthogonal segments, overlaps) net by net in id order; then the per-cell
// reports in the order the net walk first touched each cell (nets by id,
// polylines in order, each segment from its first point to its last).  At
// a cell: its horizontal net's symbol/terminal report, a different
// vertical net's, then any net touching another's node there.  Last, the
// connectivity reports, per net in id order.
#pragma once

#include <string>
#include <vector>

#include "schematic/diagram.hpp"

namespace na {

/// Returns human-readable violations; empty means the diagram is valid.
/// Unrouted nets are not an error here (they are reported by metrics);
/// pass `require_all_routed` to make them one.
std::vector<std::string> validate_diagram(const Diagram& dia,
                                          bool require_all_routed = false);

/// Region-scoped validation: checks only the geometry intersecting
/// `region` — the incremental engine's "re-check only the changed part"
/// entry point (RegenSession hands it the dirty hull of a patch).
///
/// Scope rules:
///   * placement completeness (everything placed) stays global — it is a
///     property of the diagram, costs O(symbols), and needs no geometry;
///   * symbol overlap / coincidence is checked among the symbols whose
///     rectangles intersect the region;
///   * net segments are clipped to the region before the occupancy,
///     crossing, node-contact, symbol-entry and foreign-terminal rules
///     run, so only in-region track cells are examined;
///   * connectivity (one figure reaching every terminal) is re-checked for
///     exactly the nets with at least one in-region point, over their full
///     geometry — a patch that disconnects a net does so at an edited
///     point, and the rule itself is not a local property.
///
/// Guarantee: a violation whose witness point(s) lie inside `region` is
/// reported with the same message full validation would produce; issues
/// entirely outside the region are not looked for.  An empty region
/// validates nothing and returns no issues.
std::vector<std::string> validate_region(const Diagram& dia, geom::Rect region,
                                         bool require_all_routed = false);

}  // namespace na
