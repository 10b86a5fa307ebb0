// Router front end: the search-problem vocabulary shared by all routing
// engines, and the whole-diagram routing driver (the paper's EUREKA).
// The driver is shard_route_all (route/shard_route.cpp) at one shard; the
// per-net work and the engine dispatch live in route/net_task.cpp.
//
// Driver behaviour (paper sections 5.5.3, 5.7, Appendix F):
//   * every net is routed as an initial point-to-point connection followed
//     by one expansion per remaining terminal toward the grown net;
//   * claimpoints: before anything is routed, every connected terminal
//     claims its first adjacent track; a net's own claims are released when
//     its routing starts; nets that failed are retried in a second pass
//     once all claims are gone;
//   * objective: minimum bends, then minimum crossings, then minimum length
//     (the `-s` flag swaps the last two keys);
//   * prerouted polylines already present in the diagram are kept and act
//     as obstacles (and as join targets for their own net).
#pragma once

#include <optional>
#include <vector>

#include "schematic/diagram.hpp"
#include "schematic/grid.hpp"

namespace na {

/// Tie-breaking order among minimum-bend paths (Appendix F `-s`).
enum class CostOrder {
  BendsCrossingsLength,  ///< default: fewest crossings first
  BendsLengthCrossings,  ///< -s: shortest first
};

/// A search start: a terminal grid point plus its forced exit direction
/// (nullopt for system terminals, which expand in all four directions —
/// INIT_ACTIVES in the paper).
struct SearchStart {
  geom::Point p;
  std::optional<geom::Dir> dir;
};

/// A fixed destination terminal: the path must end here, entering against
/// the terminal's outward side (nullopt direction accepts any entry).
struct SearchTarget {
  geom::Point p;
  std::optional<geom::Dir> facing;
};

/// One point-to-point (or point-to-net) search problem on a grid.
struct SearchProblem {
  NetId net = kNone;
  std::vector<SearchStart> starts;
  std::optional<SearchTarget> target;  ///< fixed terminal destination...
  bool join_own_net = false;           ///< ...or attach to own routed geometry
  CostOrder order = CostOrder::BendsCrossingsLength;
  long max_expansions = 2'000'000;     ///< safety valve for the search loops
  /// Optional search window: the grid-search engines treat points outside
  /// it as blocked.  The sharded driver's stitch passes use it to keep
  /// searches on large planes from touching O(W*H) state, retrying without
  /// the window on failure.
  std::optional<geom::Rect> window;
  /// Set when this net is already known to have failed (the retry pass,
  /// or a patch re-searching a net the cached diagram left unrouted): the
  /// grid-search engines then first try to prove the connection
  /// unreachable without a heap (line_expansion.cpp).  Results are the
  /// same either way; only a proved failure's effort differs.
  bool known_failed = false;
};

/// Cost of a found path, in the lexicographic objective's terms.
struct PathCost {
  int bends = 0;
  int crossings = 0;
  int length = 0;
};

/// A found path: corner points from the start terminal to the destination.
struct SearchResult {
  std::vector<geom::Point> path;
  PathCost cost;
  long expansions = 0;  ///< states expanded (effort measure for benches)
};

/// Which engine the driver uses for every connection search.
enum class Engine {
  LineExpansion,     ///< the paper's router: min bends/crossings/length, complete
  Lee,               ///< baseline: breadth-first, min length, complete
  Hightower,         ///< baseline: escape lines, fast, incomplete
  SegmentExpansion,  ///< the paper's router in its wavefront/segment form
};

struct RouterOptions {
  Engine engine = Engine::LineExpansion;
  CostOrder order = CostOrder::BendsCrossingsLength;
  bool use_claimpoints = true;
  bool retry_failed = true;  ///< second pass after all claims are released
  int margin = 4;            ///< empty tracks around the placement
  /// Net processing order (section 7 recommends studying this; see
  /// net_order.hpp for the available criteria).
  int order_criterion = 0;
};

struct RouteReport {
  int nets_routed = 0;          ///< nets with every terminal connected
  int nets_failed = 0;
  int connections_made = 0;     ///< individual point-to-point/net connections
  int connections_failed = 0;
  int retried_connections = 0;  ///< connections completed only in pass 2
  long total_expansions = 0;    ///< states expanded by searches that succeeded
  int failed_searches = 0;      ///< engine searches that found no path
  long failed_expansions = 0;   ///< states expanded by those searches
  int pocket_proofs = 0;        ///< failed searches ended by the pocket proof
  std::vector<NetId> failed_nets;
};

/// Routes every unrouted net of a placed diagram in place (defined with
/// the sharded driver, of which it is the one-shard case).  `known_failed`,
/// indexed by net (missing entries false), names the nets whose routing
/// is known to have failed before; their searches carry the hint
/// (SearchProblem::known_failed).  The diagram and report are the same
/// with or without it, apart from the failed searches' effort.
RouteReport route_all(Diagram& dia, const RouterOptions& opt = {},
                      const std::vector<bool>& known_failed = {});

/// Single-connection searches (exposed for tests and benches).
std::optional<SearchResult> line_expansion_search(const RoutingGrid& grid,
                                                  const SearchProblem& prob);
std::optional<SearchResult> lee_search(const RoutingGrid& grid,
                                       const SearchProblem& prob);
std::optional<SearchResult> hightower_search(const RoutingGrid& grid,
                                             const SearchProblem& prob);
std::optional<SearchResult> segment_expansion_search(const RoutingGrid& grid,
                                                     const SearchProblem& prob);

/// Fast straight-line check (paper STRAIGHT_LINE): if the two endpoints
/// align and the track between them is free for `net`, returns the
/// two-point path.  Foreign nets crossing the line perpendicularly do not
/// block it, their corners/endpoints do.
std::optional<SearchResult> straight_line(const RoutingGrid& grid, NetId net,
                                          const SearchStart& a, const SearchTarget& b);

}  // namespace na
