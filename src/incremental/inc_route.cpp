#include "incremental/inc_route.hpp"

#include <cstdint>
#include <vector>

#include "geom/point_table.hpp"
#include "geom/polyline.hpp"

namespace na {
namespace {

/// Can the net's geometry be carried over unchanged?  Requires an old
/// counterpart the diff left untouched, a complete old routing, and every
/// terminal sitting at the exact same absolute position in both diagrams.
bool is_clean(const Diagram& dia, const Diagram& old_dia, const NetlistDiff& diff,
              NetId n, const std::vector<bool>& changed) {
  const NetId on = diff.net_to_old[n];
  if (on == kNone || changed[n]) return false;
  if (!old_dia.route(on).routed) return false;
  const Network& net = dia.network();
  for (TermId t : net.net(n).terms) {
    const TermId ot = diff.term_to_old[t];
    if (ot == kNone || !dia.term_placed(t) || !old_dia.term_placed(ot)) return false;
    if (dia.term_pos(t) != old_dia.term_pos(ot)) return false;
  }
  return true;
}

/// Of the polylines in `pls`, the indices forming the largest connected
/// figure (unit adjacency over occupied points — the same notion the
/// validator's connectivity check uses, so whatever survives here is one
/// figure by its rules).  Figures are numbered in the order their first
/// point was drawn, so a tie in size keeps the figure holding the earliest
/// polyline.
std::vector<size_t> largest_figure(
    const std::vector<std::vector<geom::Point>>& pls) {
  size_t bound = 0;
  for (const auto& pl : pls) bound += geom::cell_bound(pl);
  geom::PointTable<int> comp(bound);  // point -> figure id, -1 until reached
  for (const auto& pl : pls) {
    geom::for_each_cell(pl, [&](geom::Point p) { comp[comp.insert(p)] = -1; });
  }
  int next_comp = 0;
  std::vector<int> comp_cells;
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t seed = 0; seed < comp.size(); ++seed) {
    if (comp[seed] >= 0) continue;
    const int id = next_comp++;
    comp[seed] = id;
    frontier.assign(1, seed);
    for (size_t head = 0; head < frontier.size(); ++head) {
      const geom::Point p = comp.point(frontier[head]);
      for (geom::Dir d : geom::kAllDirs) {
        const std::uint32_t q = comp.find(p + geom::delta(d));
        if (q != comp.npos && comp[q] < 0) {
          comp[q] = id;
          frontier.push_back(q);
        }
      }
    }
    comp_cells.push_back(static_cast<int>(frontier.size()));
  }
  int best = 0;
  for (int id = 1; id < next_comp; ++id) {
    if (comp_cells[id] > comp_cells[best]) best = id;
  }
  std::vector<size_t> kept;
  for (size_t i = 0; i < pls.size(); ++i) {
    const std::uint32_t at = pls[i].empty() ? comp.npos : comp.find(pls[i][0]);
    if (at != comp.npos && comp[at] == best) kept.push_back(i);
  }
  return kept;
}

geom::Rect polyline_hull(geom::Rect hull, const std::vector<geom::Point>& pl) {
  for (geom::Point p : pl) hull = hull.hull(p);
  return hull;
}

}  // namespace

PatchRouteResult patch_route(Diagram& dia, const Diagram& old_dia,
                             const NetlistDiff& diff, const RouterOptions& opt) {
  const Network& net = dia.network();
  const Network& old_net = old_dia.network();
  PatchRouteResult result;

  std::vector<bool> changed(net.net_count(), false);
  for (NetId n : diff.changed_nets) changed[n] = true;

  // ----- dirty geometry: rects of modules that appeared or moved -------------
  std::vector<geom::Rect> moved_rects;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const ModuleId om = diff.module_to_old[m];
    if (om == kNone || !old_dia.module_placed(om) ||
        dia.module_rect(m) != old_dia.module_rect(om)) {
      moved_rects.push_back(dia.module_rect(m));
    }
  }
  std::vector<geom::Point> moved_points;  // system terminals that appeared/moved
  for (TermId st : net.system_terms()) {
    if (!dia.system_term_placed(st)) continue;
    const TermId ot = diff.term_to_old[st];
    if (ot == kNone || !old_dia.system_term_placed(ot) ||
        dia.term_pos(st) != old_dia.term_pos(ot)) {
      moved_points.push_back(dia.term_pos(st));
    }
  }
  auto segment_dirty = [&](const geom::Segment& seg,
                           const std::vector<geom::Point>& stale) {
    for (const geom::Rect& rect : moved_rects) {
      if (seg.bounds().overlaps(rect)) return true;
    }
    for (const geom::Point p : moved_points) {
      if (seg.contains(p)) return true;
    }
    for (const geom::Point p : stale) {
      if (seg.contains(p)) return true;
    }
    return false;
  };
  auto polyline_dirty = [&](const std::vector<geom::Point>& pl,
                            const std::vector<geom::Point>& stale) {
    for (size_t i = 0; i < pl.size(); ++i) {
      if (segment_dirty({pl[i > 0 ? i - 1 : 0], pl[i]}, stale)) return true;
    }
    return false;
  };

  geom::Rect region;
  for (const geom::Rect& r : moved_rects) region = region.hull(r);
  for (const geom::Point p : moved_points) region = region.hull(p);

  // ----- carry clean geometry over verbatim ----------------------------------
  int old_cells = 0;
  for (NetId on = 0; on < old_net.net_count(); ++on) {
    old_cells += static_cast<int>(old_dia.route(on).cell_bound());
  }
  int kept_cells = 0;
  std::vector<bool> kept(net.net_count(), false);
  static const std::vector<geom::Point> kNoStale;
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (!is_clean(dia, old_dia, diff, n, changed)) continue;
    const NetRoute& old_route = old_dia.route(diff.net_to_old[n]);
    bool dirty = false;
    for (const auto& pl : old_route.polylines) {
      if (polyline_dirty(pl, kNoStale)) dirty = true;
    }
    if (dirty) continue;
    NetRoute& r = dia.route(n);
    r.polylines = old_route.polylines;
    r.routed = true;
    kept[n] = true;
    ++result.nets_kept;
    kept_cells += static_cast<int>(old_route.cell_bound());
  }

  // ----- partial keep: surviving figures of the nets to be (re)routed --------
  // Only the polylines under an appeared/moved symbol or touching a stale
  // terminal position are really invalid; everything else is legal drawn
  // geometry.  Keep the largest still-connected figure of it as prerouted
  // partial geometry — the route pass then merely attaches the open
  // terminals (join_own_net), so e.g. a global net that gained one pin is
  // extended near that pin instead of being re-searched across the plane.
  std::vector<int> carried(net.net_count(), 0);  // kept polylines per net
  std::vector<bool> known_failed(net.net_count(), false);
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (kept[n]) continue;
    const NetId on = diff.net_to_old[n];
    if (on == kNone) continue;
    if (!old_dia.route(on).routed) {
      // A net that had failed before is re-searched whole; its partial old
      // geometry (if any) is scrubbed and belongs to the dirty region.  Its
      // searches carry the known-failed hint: most fail again.
      for (const auto& pl : old_dia.route(on).polylines) {
        region = polyline_hull(region, pl);
      }
      known_failed[n] = true;
      continue;
    }

    // Stale endpoints: old terminal positions that no longer carry a
    // terminal of this net at the same spot.  A kept polyline ending there
    // would dangle against a module wall (or a foreign pin) — drop it.
    std::vector<geom::Point> stale;
    for (TermId ot : old_net.net(on).terms) {
      const TermId t = diff.term_to_new[ot];
      const bool survives = t != kNone && net.term(t).net == n && dia.term_placed(t) &&
                            dia.term_pos(t) == old_dia.term_pos(ot);
      if (!survives) stale.push_back(old_dia.term_pos(ot));
    }

    const NetRoute& old_route = old_dia.route(on);
    std::vector<std::vector<geom::Point>> candidates;
    for (const auto& pl : old_route.polylines) {
      if (!polyline_dirty(pl, stale)) {
        candidates.push_back(pl);
      } else {
        // Split at segment granularity: only the dirty segments are
        // scrubbed into the patch region, the clean runs survive as
        // candidates — a long net crossing the region keeps its clean
        // middle instead of being re-searched whole.  Cuts land on the
        // net's own corners; build_grid seals such mid-plane endpoints
        // in both orientations, so no foreign net can touch the node.
        for (size_t i = 0; i + 1 < pl.size(); ++i) {
          const geom::Segment seg{pl[i], pl[i + 1]};
          if (segment_dirty(seg, stale)) region = region.hull(seg.bounds());
        }
        auto pieces = geom::split_polyline(pl, [&](const geom::Segment& seg) {
          return !segment_dirty(seg, stale);
        });
        for (auto& piece : pieces) candidates.push_back(std::move(piece));
      }
    }
    if (candidates.empty()) continue;  // nothing survives: full re-route
    NetRoute& r = dia.route(n);
    std::vector<bool> in_figure(candidates.size(), false);
    for (size_t i : largest_figure(candidates)) in_figure[i] = true;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!in_figure[i]) {  // disconnected leftover: scrubbed too
        region = polyline_hull(region, candidates[i]);
        continue;
      }
      kept_cells += static_cast<int>(geom::cell_bound(candidates[i]));
      r.polylines.push_back(std::move(candidates[i]));
      ++carried[n];
    }
    r.routed = false;  // open terminals attach during the route pass
    ++result.nets_extended;
  }
  result.cells_scrubbed = old_cells - kept_cells;

  // ----- route everything still open against the preserved plane -------------
  result.report = route_all(dia, opt, known_failed);
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (kept[n] || dia.route(n).polylines.empty()) continue;
    ++result.nets_rerouted;
    const NetId on = diff.net_to_old[n];
    if (on != kNone && carried[n] == 0) {
      // Fully scrubbed: all old geometry was discarded, hull it whole.
      for (const auto& pl : old_dia.route(on).polylines) {
        region = polyline_hull(region, pl);
      }
    }
    // New geometry: everything beyond the carried-over prefix.  (For a
    // fully re-routed net that prefix is empty, so this is all of it.)
    const auto& pls = dia.route(n).polylines;
    for (size_t i = carried[n]; i < pls.size(); ++i) {
      region = polyline_hull(region, pls[i]);
    }
  }
  for (NetId on : diff.removed_nets) {  // dead geometry scrubbed silently
    for (const auto& pl : old_dia.route(on).polylines) {
      region = polyline_hull(region, pl);
    }
  }
  if (!region.empty()) region = region.expanded(1);
  result.dirty_region = region;
  return result;
}

}  // namespace na
