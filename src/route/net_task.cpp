#include "route/net_task.hpp"

#include <algorithm>
#include <limits>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "route/dijkstra.hpp"
#include "route/net_order.hpp"

namespace na::detail {
namespace {

SearchStart start_for(const Diagram& dia, TermId t) {
  const Terminal& term = dia.network().term(t);
  if (term.is_system()) return {dia.term_pos(t), std::nullopt};
  return {dia.term_pos(t), dia.term_facing(t)};
}

SearchTarget target_for(const Diagram& dia, TermId t) {
  const Terminal& term = dia.network().term(t);
  if (term.is_system()) return {dia.term_pos(t), std::nullopt};
  return {dia.term_pos(t), dia.term_facing(t)};
}

/// All unordered terminal pairs of a net, nearest first (the initiation
/// tries pairs until one connects — "another pair of points has to be
/// selected").  The manhattan keys are computed once per pair, not inside
/// the sort comparator.
struct ScoredPair {
  TermId a, b;
  int key;
};

std::vector<ScoredPair> pairs_by_distance(const Diagram& dia,
                                          const std::vector<TermId>& terms) {
  std::vector<geom::Point> pos(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) pos[i] = dia.term_pos(terms[i]);
  std::vector<ScoredPair> pairs;
  pairs.reserve(terms.size() * (terms.size() - 1) / 2);
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      pairs.push_back({terms[i], terms[j], manhattan(pos[i], pos[j])});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const ScoredPair& a, const ScoredPair& b) {
                     return a.key < b.key;
                   });
  return pairs;
}

/// Engine dispatch with workspace reuse for the grid-search engines (the
/// other two allocate internally and report no failure effort).
std::optional<SearchResult> find_path_ws(Engine e, const RoutingGrid& grid,
                                         const SearchProblem& prob,
                                         SearchWorkspace& ws) {
  switch (e) {
    case Engine::LineExpansion:
      return grid_search(grid, prob,
                         prob.order == CostOrder::BendsLengthCrossings
                             ? CostMode::BendsLengthCrossings
                             : CostMode::BendsCrossingsLength,
                         &ws);
    case Engine::Lee:
      return grid_search(grid, prob, CostMode::LengthOnly, &ws);
    case Engine::Hightower:
      ws.last_failure() = {};
      return hightower_search(grid, prob);
    case Engine::SegmentExpansion:
      ws.last_failure() = {};
      return segment_expansion_search(grid, prob);
  }
  return std::nullopt;
}

NetTaskResult route_single_net_impl(RoutingGrid& grid, const Diagram& dia, NetId n,
                                    std::vector<TermId> todo, const RouterOptions& opt,
                                    bool has_geometry, SearchWorkspace& ws,
                                    int window, bool known_failed) {
  NetTaskResult out;
  if (todo.empty()) return out;

  // Window support only exists in the grid-search engines.
  const bool windowable =
      window >= 0 &&
      (opt.engine == Engine::LineExpansion || opt.engine == Engine::Lee);

  // Running hull of the net's geometry (polyline corners bound the cells).
  geom::Rect net_bbox;
  for (const auto& pl : dia.route(n).polylines) {
    for (geom::Point p : pl) net_bbox = net_bbox.hull(p);
  }

  auto commit = [&](SearchResult res) {
    grid.occupy_polyline(n, res.path);
    for (geom::Point p : res.path) net_bbox = net_bbox.hull(p);
    out.connections.push_back(std::move(res));
    has_geometry = true;
  };

  // One engine search; a failure's effort goes into the net's tally.
  auto search = [&](const SearchProblem& prob) {
    std::optional<SearchResult> r = find_path_ws(opt.engine, grid, prob, ws);
    if (!r) {
      ++out.failed_searches;
      out.failed_expansions += ws.last_failure().expansions;
      out.pocket_proofs += ws.last_failure().pocket_proof ? 1 : 0;
    }
    return r;
  };

  // Windowed search with full-plane fallback (identical results whenever
  // the windowed attempt fails; a windowed success may be a window-local
  // optimum, which is why only the stitch passes window).
  auto engine_search = [&](SearchProblem& prob,
                           geom::Rect focus) -> std::optional<SearchResult> {
    if (windowable) {
      const geom::Rect win = focus.expanded(window);
      if (!win.contains(grid.area())) {
        prob.window = win;
        auto r = search(prob);
        prob.window.reset();
        if (r) return r;
      }
    }
    return search(prob);
  };

  // ----- initiation: first point-to-point connection --------------------
  if (!has_geometry) {
    if (todo.size() < 2) {  // nothing to connect against
      out.failed = std::move(todo);
      return out;
    }
    constexpr size_t kMaxPairTries = 8;
    size_t tries = 0;
    for (const ScoredPair& pair : pairs_by_distance(dia, todo)) {
      if (++tries > kMaxPairTries) break;
      SearchProblem prob;
      prob.net = n;
      prob.starts = {start_for(dia, pair.a)};
      prob.target = target_for(dia, pair.b);
      prob.order = opt.order;
      prob.known_failed = known_failed;
      // Straight-line fast path (paper STRAIGHT_LINE) for fixed destinations.
      const geom::Point pa = prob.starts[0].p;
      const geom::Point pb = prob.target->p;
      std::optional<SearchResult> res;
      if (pa != pb && (pa.x == pb.x || pa.y == pb.y)) {
        res = straight_line(grid, n, prob.starts[0], *prob.target);
      }
      if (!res) res = engine_search(prob, geom::Rect{pa, pa}.hull(pb));
      if (res) {
        commit(std::move(*res));
        std::erase(todo, pair.a);
        std::erase(todo, pair.b);
        break;
      }
    }
    if (!has_geometry) {  // initiation impossible for now
      out.failed = std::move(todo);
      return out;
    }
  }

  // ----- expansion: attach remaining terminals one at a time ------------
  // Nearest-to-the-net terminal first.  Each terminal's distance to the
  // net's polyline corners is seeded once and refreshed only against newly
  // committed paths, instead of being recomputed over the whole geometry
  // inside a min_element comparator.
  std::vector<int> dist(todo.size(), std::numeric_limits<int>::max());
  for (const auto& pl : dia.route(n).polylines) {
    for (geom::Point p : pl) {
      for (size_t i = 0; i < todo.size(); ++i) {
        dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
      }
    }
  }
  for (const SearchResult& c : out.connections) {
    for (geom::Point p : c.path) {
      for (size_t i = 0; i < todo.size(); ++i) {
        dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
      }
    }
  }
  while (!todo.empty()) {
    size_t nearest = 0;
    for (size_t i = 1; i < todo.size(); ++i) {
      if (dist[i] < dist[nearest]) nearest = i;
    }
    const TermId t = todo[nearest];
    todo.erase(todo.begin() + nearest);
    dist.erase(dist.begin() + nearest);
    SearchProblem prob;
    prob.net = n;
    prob.starts = {start_for(dia, t)};
    prob.join_own_net = true;
    prob.order = opt.order;
    prob.known_failed = known_failed;
    if (auto res = engine_search(prob, net_bbox.hull(prob.starts[0].p))) {
      for (size_t i = 0; i < todo.size(); ++i) {
        for (geom::Point p : res->path) {
          dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
        }
      }
      commit(std::move(*res));
    } else {
      out.failed.push_back(t);
    }
  }
  return out;
}

}  // namespace

NetTaskResult route_single_net(RoutingGrid& grid, const Diagram& dia, NetId n,
                               std::vector<TermId> todo, const RouterOptions& opt,
                               bool has_geometry, SearchWorkspace& ws,
                               int window, bool known_failed) {
  // Per-net telemetry span shared by every driver: route_all, the shard
  // jobs (worker >= 0) and the stitch pass all funnel through here.
  NA_TRACE_SPAN(span, "route.net");
  NetTaskResult out = route_single_net_impl(grid, dia, n, std::move(todo), opt,
                                            has_geometry, ws, window,
                                            known_failed);
  span.arg("net", n);
  span.arg("worker", ThreadPool::worker_index());
  long long expansions = 0;
  for (const SearchResult& c : out.connections) expansions += c.expansions;
  span.arg("expansions", expansions);
  // Cumulative per-thread expansion counter: viewers derive the router's
  // expansion *rate* from the slope of this series.
  {
    thread_local long long tl_expansions = 0;
    tl_expansions += expansions;
    NA_TRACE_COUNTER("route.expansions", "cumulative", tl_expansions);
  }
  span.arg("connections", static_cast<long long>(out.connections.size()));
  span.arg("failed_terms", static_cast<long long>(out.failed.size()));
  span.arg("failed_expansions", static_cast<long long>(out.failed_expansions));
  span.arg("pocket_proofs", out.pocket_proofs);
  return out;
}

void DriverSetup::release_claims(NetId n) {
  for (geom::Point cell : claims[n]) grid.clear_claim(cell);
  claims[n].clear();
}

void restore_claim(RoutingGrid& grid, const Diagram& dia,
                   const RouterOptions& opt, TermId t, NetId n,
                   std::vector<geom::Point>& claims) {
  if (!opt.use_claimpoints || dia.network().term(t).is_system()) return;
  const geom::Point cell = dia.term_pos(t) + geom::delta(dia.term_facing(t));
  if (grid.in_bounds(cell) && !grid.blocked(cell) &&
      grid.claim_owner(cell) == kNone && grid.h_net(cell) == kNone &&
      grid.v_net(cell) == kNone) {
    grid.set_claim(cell, n);
    claims.push_back(cell);
  }
}

DriverSetup prepare_driver(const Diagram& dia, const RouterOptions& opt,
                           const std::vector<bool>& known_failed) {
  const Network& net = dia.network();
  DriverSetup setup(build_grid(dia, opt.margin));
  setup.known_failed = known_failed;
  setup.known_failed.resize(net.net_count(), false);

  // Terminals of each net that still need connecting.  With prerouted
  // geometry, terminals already covered by it count as connected.
  setup.pending.resize(net.net_count());
  setup.has_geometry.assign(net.net_count(), false);
  setup.claims.resize(net.net_count());
  for (NetId n = 0; n < net.net_count(); ++n) {
    setup.has_geometry[n] = !dia.route(n).polylines.empty();
    for (TermId t : net.net(n).terms) {
      if (!dia.term_placed(t)) continue;
      if (setup.has_geometry[n] && setup.grid.occupied_by(dia.term_pos(t), n)) {
        continue;
      }
      setup.pending[n].push_back(t);
    }
  }

  // Claimpoints: every still-unconnected subsystem terminal claims the
  // first track outside its module side (section 5.7).
  if (opt.use_claimpoints) {
    for (NetId n = 0; n < net.net_count(); ++n) {
      for (TermId t : setup.pending[n]) {
        if (net.term(t).is_system()) continue;
        const geom::Point cell =
            dia.term_pos(t) + geom::delta(dia.term_facing(t));
        if (setup.grid.in_bounds(cell) && !setup.grid.blocked(cell) &&
            setup.grid.claim_owner(cell) == kNone) {
          setup.grid.set_claim(cell, n);
          setup.claims[n].push_back(cell);
        }
      }
    }
  }
  return setup;
}

std::vector<NetId> ordered_nets(const Diagram& dia, const RouterOptions& opt) {
  return order_nets(dia, static_cast<NetOrderCriterion>(opt.order_criterion));
}

void commit_connections(Diagram& dia, NetId n, NetTaskResult& res,
                        DriverSetup& setup, RouteReport& report) {
  for (SearchResult& c : res.connections) {
    dia.add_polyline(n, std::move(c.path));
    setup.has_geometry[n] = true;
    ++report.connections_made;
    report.total_expansions += c.expansions;
  }
  report.failed_searches += res.failed_searches;
  report.failed_expansions += res.failed_expansions;
  report.pocket_proofs += res.pocket_proofs;
}

void route_nets(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& nets, RouteReport& report,
                SearchWorkspace& ws, int window) {
  for (NetId n : nets) {
    if (setup.pending[n].empty()) continue;
    setup.release_claims(n);
    NetTaskResult res =
        route_single_net(setup.grid, dia, n, std::move(setup.pending[n]), opt,
                         setup.has_geometry[n], ws, window,
                         setup.known_failed[n]);
    commit_connections(dia, n, res, setup, report);
    setup.pending[n] = std::move(res.failed);
    for (TermId t : setup.pending[n]) {
      restore_claim(setup.grid, dia, opt, t, n, setup.claims[n]);
    }
  }
}

void retry_pass(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& order, RouteReport& report,
                SearchWorkspace& ws) {
  if (!opt.retry_failed) return;
  NA_TRACE_SCOPE("route.retry");
  for (NetId n = 0; n < static_cast<NetId>(setup.claims.size()); ++n) {
    setup.release_claims(n);
  }
  for (NetId n : order) {
    if (setup.pending[n].empty()) continue;
    const int before = static_cast<int>(setup.pending[n].size());
    // Pass 1 left the net unconnected, so its searches carry the hint.
    NetTaskResult res =
        route_single_net(setup.grid, dia, n, std::move(setup.pending[n]), opt,
                         setup.has_geometry[n], ws, /*window=*/-1,
                         /*known_failed=*/true);
    commit_connections(dia, n, res, setup, report);
    setup.pending[n] = std::move(res.failed);
    report.retried_connections +=
        before - static_cast<int>(setup.pending[n].size());
  }
}

void finish_report(Diagram& dia, DriverSetup& setup, RouteReport& report) {
  const Network& net = dia.network();
  for (NetId n = 0; n < net.net_count(); ++n) {
    int placeable = 0;
    for (TermId t : net.net(n).terms) placeable += dia.term_placed(t) ? 1 : 0;
    if (placeable < 2) continue;  // not a routable net
    if (setup.pending[n].empty() && setup.has_geometry[n]) {
      dia.route(n).routed = true;
      ++report.nets_routed;
    } else {
      ++report.nets_failed;
      report.failed_nets.push_back(n);
      report.connections_failed += static_cast<int>(setup.pending[n].size());
    }
  }
}

}  // namespace na::detail
