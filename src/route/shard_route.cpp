#include "route/shard_route.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "route/net_task.hpp"

namespace na {
namespace {

using detail::DriverSetup;
using detail::NetTaskResult;

/// Search window slack, in tracks around a stitch net's hull, of the
/// offset pass (whole-strip fallback) and the residual pass (full-plane
/// fallback).
constexpr int kHalo = 16;

/// What one shard job produced for one of its nets, in processing order.
/// The merge replays these onto the live plane: paths become occupancy +
/// diagram polylines, `new_claims` are the cells of the claimpoints the
/// job restored for terminals that stayed unconnected.
struct ShardNetResult {
  NetId net = kNone;
  NetTaskResult res;
  std::vector<geom::Point> new_claims;
};

struct ShardJob {
  geom::Rect region;
  std::vector<NetId> nets;  ///< assigned nets, in global processing order
  std::vector<ShardNetResult> results;
};

/// Routes one shard's nets against a clipped copy of the plane, searching
/// with `window` (-1: unwindowed).  Pure function of (setup snapshot, dia,
/// job.nets, opt) — safe to run concurrently with other shards, and
/// byte-identical at any thread count.
void run_shard(ShardJob& job, const DriverSetup& setup, const Diagram& dia,
               const RouterOptions& opt, int window, int tiling,
               int shard_idx) {
  if (job.nets.empty()) return;  // no strip copy for an idle region
  NA_TRACE_SPAN(span, "route.shard");
  span.arg("tiling", tiling);
  span.arg("shard", shard_idx);
  span.arg("nets", static_cast<long long>(job.nets.size()));
  RoutingGrid local = setup.grid.clipped(job.region);
  detail::SearchWorkspace ws;
  job.results.reserve(job.nets.size());
  for (NetId n : job.nets) {
    ShardNetResult r;
    r.net = n;
    // Mirror of the sequential driver's per-net step: release the net's
    // own claims, route, re-claim the escape tracks of what failed.  All
    // of net n's claims lie inside the region (assignment guarantees the
    // net hull + 1 fits), so clearing the net's list in the shared
    // snapshot hits exactly the cells the live-plane release will clear
    // at merge.
    for (geom::Point cell : setup.claims[n]) local.clear_claim(cell);
    r.res = detail::route_single_net(local, dia, n, setup.pending[n], opt,
                                     setup.has_geometry[n], ws, window,
                                     setup.known_failed[n]);
    // The live claim lists are patched at merge from `new_claims`.
    for (TermId t : r.res.failed) {
      detail::restore_claim(local, dia, opt, t, n, r.new_claims);
    }
    job.results.push_back(std::move(r));
  }
}

/// One sharded pass over a tiling (0: the strips, unwindowed; 1: the
/// offset strips, windowed at kHalo): assigns each of `nets` to the first
/// region that holds it, routes the regions' jobs on `pool` (inline when
/// null) and merges their results into the live plane in region order.
/// Returns the nets no region holds, in order; `region_nets`, when given,
/// gets each region's count.
std::vector<NetId> shard_pass(Diagram& dia, const RouterOptions& opt,
                              const std::vector<geom::Rect>& regions,
                              int tiling, const std::vector<NetId>& nets,
                              DriverSetup& setup, ThreadPool* pool,
                              RouteReport& report,
                              std::vector<int>* region_nets) {
  // ----- assignment ----------------------------------------------------------
  // A net belongs to region s iff the hull of its pending terminals and its
  // prerouted geometry, inflated by one track (claimpoints sit one step
  // outside a terminal), fits inside region s.
  std::vector<ShardJob> jobs(regions.size());
  for (size_t s = 0; s < regions.size(); ++s) jobs[s].region = regions[s];
  std::vector<NetId> rest;
  for (NetId n : nets) {
    if (setup.pending[n].empty()) continue;
    geom::Rect hull;
    for (TermId t : setup.pending[n]) hull = hull.hull(dia.term_pos(t));
    for (const auto& pl : dia.route(n).polylines) {
      for (geom::Point p : pl) hull = hull.hull(p);
    }
    const geom::Rect need = hull.expanded(1);
    const auto it = std::find_if(regions.begin(), regions.end(),
                                 [&](const geom::Rect& r) { return r.contains(need); });
    if (it == regions.end()) {
      rest.push_back(n);
    } else {
      jobs[static_cast<size_t>(it - regions.begin())].nets.push_back(n);
    }
  }

  // ----- jobs ----------------------------------------------------------------
  {
    const int window = tiling == 0 ? -1 : kHalo;
    NA_TRACE_SPAN(span, tiling == 0 ? "route.shard_pass" : "route.offset_pass");
    span.arg("shards", static_cast<long long>(jobs.size()));
    span.arg("rest", static_cast<long long>(rest.size()));
    if (pool) {
      span.arg("threads", pool->size());
      for (size_t s = 0; s < jobs.size(); ++s) {
        pool->submit([&, s] {
          run_shard(jobs[s], setup, dia, opt, window, tiling,
                    static_cast<int>(s));
        });
      }
      pool->wait_idle();
    } else {
      for (size_t s = 0; s < jobs.size(); ++s) {
        run_shard(jobs[s], setup, dia, opt, window, tiling,
                  static_cast<int>(s));
      }
    }
  }

  // ----- merge (region order — deterministic) --------------------------------
  {
    NA_TRACE_SCOPE(tiling == 0 ? "route.shard_merge" : "route.offset_merge");
    for (ShardJob& job : jobs) {
      for (ShardNetResult& r : job.results) {
        setup.release_claims(r.net);
        for (const SearchResult& c : r.res.connections) {
          setup.grid.occupy_polyline(r.net, c.path);
        }
        detail::commit_connections(dia, r.net, r.res, setup, report);
        setup.pending[r.net] = std::move(r.res.failed);
        for (geom::Point cell : r.new_claims) {
          setup.grid.set_claim(cell, r.net);
          setup.claims[r.net].push_back(cell);
        }
      }
    }
  }

  if (region_nets) {
    for (const ShardJob& job : jobs) {
      region_nets->push_back(static_cast<int>(job.nets.size()));
    }
  }
  return rest;
}

/// Pass 1 over more than one strip: a sharded pass over the strips, a
/// second over the offset strips for the nets that cross a cut (the
/// stitch nets), then the residual sequentially on the live plane.
void route_sharded(Diagram& dia, const RouterOptions& opt,
                   const ShardOptions& sopt,
                   const std::vector<geom::Rect>& regions, DriverSetup& setup,
                   const std::vector<NetId>& order, RouteReport& report,
                   detail::SearchWorkspace& ws, ShardRouteStats* stats) {
  const std::vector<geom::Rect> offset = offset_regions(regions);
  int threads = sopt.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<int>(threads, static_cast<int>(offset.size()));
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  ThreadPool* workers = pool ? &*pool : nullptr;

  std::vector<int> shard_nets;
  const std::vector<NetId> stitch = shard_pass(
      dia, opt, regions, 0, order, setup, workers, report, &shard_nets);

  // ----- stitch: the offset tiling, then the residual on the live plane ------
  // Both search inside the halo window around the net's hull; a failed
  // windowed search falls back to the whole offset strip or plane.
  std::vector<NetId> residual;
  {
    NA_TRACE_SPAN(span, "route.stitch");
    span.arg("nets", static_cast<long long>(stitch.size()));
    residual = shard_pass(dia, opt, offset, 1, stitch, setup, workers, report,
                          nullptr);
    span.arg("residual", static_cast<long long>(residual.size()));
    detail::route_nets(dia, opt, setup, residual, report, ws, kHalo);
  }

  if (stats) {
    stats->shard_nets = std::move(shard_nets);
    for (int count : stats->shard_nets) stats->nets_intra += count;
    stats->nets_stitch = static_cast<int>(stitch.size());
    stats->nets_residual = static_cast<int>(residual.size());
    if (stats->nets_intra > 0) {
      const double mean = static_cast<double>(stats->nets_intra) /
                          static_cast<double>(stats->shard_nets.size());
      const int peak =
          *std::max_element(stats->shard_nets.begin(), stats->shard_nets.end());
      stats->balance = static_cast<double>(peak) / mean;
    }
  }
}

}  // namespace

std::vector<geom::Rect> shard_regions(geom::Rect area, int shards) {
  std::vector<geom::Rect> out;
  if (area.empty() || shards < 1) return out;
  const int cols = area.width() + 1;
  const int n = std::min(shards, cols);
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Column ranges [i*cols/n, (i+1)*cols/n): exact cover, widths within 1.
    const int x0 = area.lo.x + static_cast<int>(static_cast<long long>(cols) * i / n);
    const int x1 = area.lo.x + static_cast<int>(static_cast<long long>(cols) * (i + 1) / n) - 1;
    out.push_back({{x0, area.lo.y}, {x1, area.hi.y}});
  }
  return out;
}

std::vector<geom::Rect> offset_regions(const std::vector<geom::Rect>& strips) {
  std::vector<geom::Rect> out;
  if (strips.empty()) return out;
  const geom::Rect& first = strips.front();
  int x0 = first.lo.x;
  for (const geom::Rect& s : strips) {
    // Cut at the strip's midpoint column; a strip one column wide has none.
    const int mid = s.lo.x + (s.width() + 1) / 2;
    if (mid == s.lo.x) continue;
    out.push_back({{x0, first.lo.y}, {mid - 1, first.hi.y}});
    x0 = mid;
  }
  out.push_back({{x0, first.lo.y}, {strips.back().hi.x, first.hi.y}});
  return out;
}

RouteReport route_all(Diagram& dia, const RouterOptions& opt,
                      const std::vector<bool>& known_failed) {
  return shard_route_all(dia, opt, {}, nullptr, known_failed);
}

RouteReport shard_route_all(Diagram& dia, const RouterOptions& opt,
                            const ShardOptions& sopt, ShardRouteStats* stats,
                            const std::vector<bool>& known_failed) {
  if (stats) *stats = {};
  DriverSetup setup = detail::prepare_driver(dia, opt, known_failed);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt);
  RouteReport report;
  detail::SearchWorkspace ws;

  const std::vector<geom::Rect> regions =
      shard_regions(setup.grid.area(), sopt.shards);
  if (regions.size() <= 1) {
    // One region: the sequential pass 1 over the whole plane.
    if (stats) {
      int assigned = 0;
      for (NetId n : order) assigned += setup.pending[n].empty() ? 0 : 1;
      stats->shard_nets = {assigned};
      stats->nets_intra = assigned;
    }
    NA_TRACE_SPAN(span, "route.pass1");
    span.arg("nets", static_cast<long long>(order.size()));
    detail::route_nets(dia, opt, setup, order, report, ws);
  } else {
    route_sharded(dia, opt, sopt, regions, setup, order, report, ws, stats);
  }

  // ----- pass 2: retry after every claim is gone (section 5.7) ---------------
  detail::retry_pass(dia, opt, setup, order, report, ws);
  detail::finish_report(dia, setup, report);
  return report;
}

}  // namespace na
