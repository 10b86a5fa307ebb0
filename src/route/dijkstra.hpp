// Internal shared search core for the grid routers.
//
// Both the line-expansion router (lexicographic bends/crossings/length) and
// the Lee baseline (pure length) are instances of a priority-first wavefront
// over states (grid point, heading).  The line-expansion principle of paper
// section 5.5.2 appears here as the cost structure: straight moves extend
// the current escape line for free (in bends), a turn starts a new expansion
// wave one bend deeper — so the search visits the plane zone by zone in
// exactly the wave order of the paper, and the guaranteed-solution property
// (5.5.4) holds because every reachable state is eventually expanded.
#pragma once

#include <cstdint>

#include "route/router.hpp"
#include "route/search_workspace.hpp"

namespace na::detail {

/// Cost key composition for the priority queue.
enum class CostMode {
  BendsCrossingsLength,
  BendsLengthCrossings,
  LengthOnly,  ///< Lee
};

/// The pop at which a search checks once whether its destination can be
/// reached at all (the pocket proof in line_expansion.cpp), and how many
/// states the proof's backward walk, and the forward flood of a
/// known-failed search's proof, may visit before giving up.  A search
/// that pops this many states without finding a path is usually flooding
/// the plane around a destination that is sealed off.
inline constexpr long kPocketCheckAt = 4096;
inline constexpr long kPocketBudget = 4096;

/// Runs the search; returns std::nullopt when no path exists (or the
/// expansion budget is exhausted) and leaves the failed search's effort in
/// the workspace's last_failure().  With a workspace the search reuses its
/// scratch arrays instead of allocating per call (identical results either
/// way).
std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws = nullptr);

}  // namespace na::detail
