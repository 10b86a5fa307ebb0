// Global routing (paper section 5.2.1) — the stage of traditional layout
// the paper describes and then deliberately skips ("To keep the routing
// simple, the split up in global routing and local routing will not be
// made").  Implemented here as a substrate so the trade-off is measurable:
//
//   "Global routing deals with the assignment of nets to certain routing
//    areas between the modules.  The global router decides through which
//    areas the nets will run. ... The main consideration is the flow
//    through narrow or important channels.  Some connections may be routed
//    around to avoid critical bottlenecks."
//
// The plane is partitioned into coarse cells (gcells); each gcell boundary
// has a capacity equal to its free (non-module) tracks.  Every net is
// assigned a tree of gcells via congestion-aware shortest-path search, so
// heavily used boundaries push later nets around bottlenecks.  The result
// is the decomposition a local router would consume, plus the congestion
// statistics (overflow) that predict where detailed routing will struggle.
#pragma once

#include <vector>

#include "schematic/diagram.hpp"

namespace na {

struct GlobalRouteOptions {
  int gcell_size = 8;       ///< tracks per gcell edge
  double overflow_cost = 8; ///< extra cost per unit demand beyond capacity
};

/// One gcell-to-gcell boundary crossing used by a net.
struct GlobalSegment {
  geom::Point from;  ///< gcell coordinates (column, row)
  geom::Point to;
};

struct GlobalNetRoute {
  NetId net = kNone;
  bool routed = false;
  std::vector<GlobalSegment> segments;  ///< tree edges over gcells
};

struct GlobalRouteResult {
  int cols = 0;
  int rows = 0;
  geom::Rect area;  ///< track-space area covered by the gcell grid
  std::vector<GlobalNetRoute> nets;
  /// Demand and capacity per boundary: horizontal boundaries (between
  /// vertically adjacent gcells) and vertical boundaries, row-major.
  std::vector<int> h_demand, h_capacity;  ///< (cols) x (rows-1)
  std::vector<int> v_demand, v_capacity;  ///< (cols-1) x (rows)
  int total_overflow = 0;   ///< sum of max(0, demand - capacity)
  int max_congestion = 0;   ///< worst demand on any boundary
  int assigned = 0;         ///< nets with a complete assignment
  int failed = 0;

  int h_index(int col, int row) const { return row * cols + col; }
  int v_index(int col, int row) const { return row * (cols - 1) + col; }
};

/// Globally routes every net (>= 2 placeable terminals) of a placed
/// diagram.  Nets are processed longest span first; multi-terminal nets
/// are assembled star-wise (each terminal joins the growing gcell tree).
GlobalRouteResult global_route(const Diagram& dia,
                               const GlobalRouteOptions& opt = {});

}  // namespace na
