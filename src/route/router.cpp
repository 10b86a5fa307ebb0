// The whole-diagram routing driver: claimpoints, net ordering, per-net
// initiation + expansion, and the post-pass retry of section 5.7.
//
// The per-net work and the pass loops live in route/net_task.cpp (shared
// with the sharded driver); this file keeps the engine dispatch and the
// driver's sequence of passes.
#include "route/router.hpp"

#include "obs/trace.hpp"
#include "route/net_task.hpp"

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
  detail::DriverSetup setup = detail::prepare_driver(dia, opt);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt);
  RouteReport report;
  detail::SearchWorkspace ws;

  // ----- pass 1 --------------------------------------------------------------
  {
    NA_TRACE_SPAN(span, "route.pass1");
    span.arg("nets", static_cast<long long>(order.size()));
    detail::route_nets(dia, opt, setup, order, report, ws);
  }

  // ----- pass 2: retry after every claim is gone (section 5.7) ---------------
  detail::retry_pass(dia, opt, setup, order, report, ws);

  // ----- accounting -----------------------------------------------------------
  detail::finish_report(dia, setup, report);
  return report;
}

}  // namespace na
