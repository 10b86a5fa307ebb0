// The whole-diagram routing driver: claimpoints, net ordering, per-net
// initiation + expansion, and the post-pass retry of section 5.7.
//
// The per-net work and the pass loops live in route/net_task.cpp; the
// sequence of passes is the sharded driver's (route/shard_route.cpp) at one
// shard.  This file keeps the engine dispatch.
#include "route/router.hpp"

#include "route/shard_route.hpp"

namespace na {

std::optional<SearchResult> find_path(Engine e, const RoutingGrid& grid,
                                      const SearchProblem& prob) {
  switch (e) {
    case Engine::LineExpansion: return line_expansion_search(grid, prob);
    case Engine::Lee: return lee_search(grid, prob);
    case Engine::Hightower: return hightower_search(grid, prob);
    case Engine::SegmentExpansion: return segment_expansion_search(grid, prob);
  }
  return std::nullopt;
}

RouteReport route_all(Diagram& dia, const RouterOptions& opt) {
  return shard_route_all(dia, opt, {});
}

}  // namespace na
