#include "schematic/validate.hpp"

#include "geom/point_table.hpp"
#include "geom/polyline.hpp"
#include "geom/rect_index.hpp"
#include "obs/trace.hpp"

#include <cstdint>
#include <unordered_map>

namespace na {
namespace {

/// One point the checker examined.  `h`/`v`: the first net to run through
/// it horizontally/vertically; `node`: the last net with a corner, branch
/// or endpoint there; `term`: the net of the last terminal there; `sys`:
/// the scoped system terminal there; `mark`/`seen`: connectivity stamps.
struct Cell {
  NetId h = kNone;
  NetId v = kNone;
  NetId node = kNone;
  NetId term = kNone;
  TermId sys = kNone;
  NetId mark = kNone;
  NetId seen = kNone;
};

/// Shared checker body.  `region == nullptr` validates the whole diagram;
/// otherwise only geometry intersecting `*region` is examined (see the
/// scope rules on validate_region in the header).  The per-point work is
/// identical in both modes, so an in-region violation produces the same
/// message either way.  A call that reaches the routing checks gives `span`
/// the distinct points it examined (`cells`), the nets whose connectivity
/// ran (`nets_checked`) and its point table's capacity (`slots`).
template <class Span>
std::vector<std::string> validate_impl(const Diagram& dia,
                                       bool require_all_routed,
                                       const geom::Rect* region, Span& span) {
  const Network& net = dia.network();
  std::vector<std::string> problems;
  auto report = [&](std::string msg) { problems.push_back(std::move(msg)); };
  auto in_scope = [&](geom::Point p) { return !region || region->contains(p); };

  // --- placement: everything placed, no symbol overlap ----------------------
  // Completeness is global (a property of the diagram, no geometry to
  // scope); the geometric checks run over the symbols touching the region.
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) report("module '" + net.module(m).name + "' unplaced");
  }
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) {
      report("system terminal '" + net.term(t).name + "' unplaced");
    }
  }
  // The symbols in scope, indexed once: every symbol query below asks the
  // bucket grid instead of scanning all modules, and gets its candidates in
  // scoped_mods order, so reports come out in the order a scan makes them.
  std::vector<int> scoped_mods;  // placed modules whose rect touches the scope
  std::vector<geom::Rect> scoped_rects;  // their rects, same order
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    const geom::Rect rect = dia.module_rect(m);
    if (region && !region->overlaps(rect)) continue;
    scoped_mods.push_back(m);
    scoped_rects.push_back(rect);
  }
  const geom::RectIndex mod_index(std::move(scoped_rects));
  std::vector<TermId> scoped_terms;  // placed system terminals in scope
  // point -> positions in scoped_terms, ascending
  std::unordered_map<std::uint64_t, std::vector<size_t>> terms_at;
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    terms_at[geom::point_key(dia.term_pos(t))].push_back(scoped_terms.size());
    scoped_terms.push_back(t);
  }
  std::vector<int> overlapping;
  for (int i = 0; i < mod_index.size(); ++i) {
    const int a = scoped_mods[i];
    mod_index.overlapping_after(i, overlapping);
    for (const int j : overlapping) {
      report("modules '" + net.module(a).name + "' and '" +
             net.module(scoped_mods[j]).name + "' overlap");
    }
  }
  for (size_t i = 0; i < scoped_terms.size(); ++i) {
    const TermId ti = scoped_terms[i];
    const geom::Point pi = dia.term_pos(ti);
    mod_index.containing(pi, [&](int k) {
      report("system terminal '" + net.term(ti).name + "' overlaps module '" +
             net.module(scoped_mods[k]).name + "'");
      return false;
    });
    for (const size_t j : terms_at.at(geom::point_key(pi))) {
      if (j <= i) continue;
      report("system terminals '" + net.term(ti).name + "' and '" +
             net.term(scoped_terms[j]).name + "' coincide");
    }
  }
  if (!problems.empty()) return problems;  // routing checks need full placement

  // --- routing geometry -------------------------------------------------------
  // One table holds every point examined, records in first-touch order.  It
  // is sized from the cells and vertices of the nets whose geometry meets
  // the scope: every point the walk and the connectivity pass can touch.
  size_t bound = 0;
  for (NetId n = 0; n < net.net_count(); ++n) {
    geom::Rect hull;
    for (const auto& pl : dia.route(n).polylines) {
      for (geom::Point p : pl) hull = hull.hull(p);
    }
    if (!region || hull.overlaps(*region)) bound += dia.route(n).cell_bound();
  }
  geom::PointTable<Cell> cells(bound);
  auto cell = [&](geom::Point p) -> Cell& { return cells[cells.insert(p)]; };
  std::vector<bool> touches(net.net_count(), region == nullptr);

  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (require_all_routed && region == nullptr && !r.routed &&
        !net.net(n).terms.empty()) {
      report("net '" + net.net(n).name + "' unrouted");
    }
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) {
        // A single point is only meaningful when joining at a terminal that
        // already lies on the net; treat as node.
        if (!pl.empty() && in_scope(pl[0])) {
          cell(pl[0]).node = n;
          touches[n] = true;
        }
        continue;
      }
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) {
          if (!region || region->overlaps(geom::Segment{a, b}.bounds())) {
            report("net '" + net.net(n).name + "' has a non-orthogonal segment " +
                   geom::to_string(a) + "-" + geom::to_string(b));
          }
          continue;
        }
        if (a == b) continue;
        // Clip the segment to the scope, preserving its walk direction so
        // reports come out in the same order as a full validation.
        geom::Point from = a;
        geom::Point to = b;
        if (region) {
          const geom::Rect clipped =
              geom::Segment{a, b}.bounds().intersect(*region);
          if (clipped.empty()) continue;
          if (b.x >= a.x && b.y >= a.y) {
            from = clipped.lo;
            to = clipped.hi;
          } else {
            from = clipped.hi;
            to = clipped.lo;
          }
        }
        touches[n] = true;
        const bool horizontal = a.y == b.y;
        const geom::Point step = {(to.x > from.x) - (to.x < from.x),
                                  (to.y > from.y) - (to.y < from.y)};
        for (geom::Point p = from;; p += step) {
          NetId& occ = horizontal ? cell(p).h : cell(p).v;
          if (occ == kNone) {
            occ = n;
          } else if (occ != n) {
            report("nets '" + net.net(n).name + "' and '" + net.net(occ).name +
                   "' overlap at " + geom::to_string(p));
          }
          if (p == to) break;
        }
      }
      if (in_scope(pl.front())) cell(pl.front()).node = n;
      if (in_scope(pl.back())) cell(pl.back()).node = n;
      for (size_t i = 1; i + 1 < pl.size(); ++i) {
        if (in_scope(pl[i])) cell(pl[i]).node = n;  // corner
      }
    }
    if (require_all_routed && region != nullptr && !r.routed && touches[n] &&
        !net.net(n).terms.empty()) {
      report("net '" + net.net(n).name + "' unrouted");
    }
  }

  // --- terminals on wire cells ------------------------------------------------
  // Only the walked cells are checked against terminals, so a terminal off
  // every wire needs no record.  The placement checks above returned on any
  // coincidence, so a cell holds at most one scoped system terminal.
  for (int t = 0; t < net.term_count(); ++t) {
    if (net.term(t).net == kNone || !in_scope(dia.term_pos(t))) continue;
    if (const auto i = cells.find(dia.term_pos(t)); i != cells.npos) {
      cells[i].term = net.term(t).net;
    }
  }
  for (const TermId t : scoped_terms) {
    if (const auto i = cells.find(dia.term_pos(t)); i != cells.npos) cells[i].sys = t;
  }

  // --- per-cell checks, in first-touch order ----------------------------------
  // At each cell: its horizontal net, then a different vertical net, against
  // symbols and terminals; then the node contact rule (a corner/endpoint of
  // net A may not be touched by any other net: crossing requires both
  // straight through).
  auto check_point = [&](geom::Point p, const Cell& c, NetId n) {
    if (c.term != kNone) {
      if (c.term != n) {
        report("net '" + net.net(n).name + "' touches a foreign terminal at " +
               geom::to_string(p));
      }
      return;
    }
    bool entered = false;
    mod_index.containing(p, [&](int k) {
      report("net '" + net.net(n).name + "' enters module '" +
             net.module(scoped_mods[k]).name + "' at " + geom::to_string(p));
      entered = true;
      return true;
    });
    if (!entered && c.sys != kNone && net.term(c.sys).net != n) {
      report("net '" + net.net(n).name + "' covers system terminal '" +
             net.term(c.sys).name + "'");
    }
  };
  for (std::uint32_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const geom::Point p = cells.point(i);
    if (c.h != kNone) check_point(p, c, c.h);
    if (c.v != kNone && c.v != c.h) check_point(p, c, c.v);
    if (c.node == kNone) continue;
    for (const NetId other : {c.h, c.v}) {
      if (other != kNone && other != c.node) {
        report("net '" + net.net(other).name + "' touches a node of net '" +
               net.net(c.node).name + "' at " + geom::to_string(p));
      }
    }
  }

  // --- connectivity: each routed net is one figure containing all terminals --
  // In region mode only the nets with in-scope geometry are re-checked, but
  // always over their *full* geometry: being one figure is not a local
  // property, and a patch can only disconnect a net at an edited point.
  // A net's points are the cells stamped `mark == n`.  Orthogonal polylines
  // that each start or end on the ones before them form one figure; only a
  // net not drawn that way runs the BFS, which stamps the points it reaches
  // `seen = n`.  The queue is reused across nets.
  std::vector<std::uint32_t> frontier;
  long long nets_checked = 0;
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (!r.routed || !touches[n]) continue;
    ++nets_checked;
    size_t points = 0;
    std::uint32_t first = cells.npos;
    std::uint32_t last = cells.npos;
    auto mark = [&](geom::Point p) {
      last = cells.find_near(p, last);
      if (last == cells.npos) last = cells.insert(p);
      if (cells[last].mark == n) return;
      cells[last].mark = n;
      if (points++ == 0) first = last;
    };
    auto on_net = [&](geom::Point p) {
      const std::uint32_t i = cells.find(p);
      return i != cells.npos && cells[i].mark == n;
    };
    bool chained = true;
    for (const auto& pl : r.polylines) {
      if (pl.empty()) continue;
      if (points > 0 && !on_net(pl.front()) && !on_net(pl.back())) chained = false;
      for (size_t i = 1; i < pl.size(); ++i) {
        if (pl[i - 1].x != pl[i].x && pl[i - 1].y != pl[i].y) chained = false;
      }
      geom::for_each_cell(pl, mark);
      mark(pl.front());
    }
    if (points == 0) {
      report("net '" + net.net(n).name + "' marked routed but has no geometry");
      continue;
    }
    if (!chained) {
      // BFS over unit adjacency within the net's points.
      frontier.assign(1, first);
      cells[first].seen = n;
      for (size_t head = 0; head < frontier.size(); ++head) {
        const std::uint32_t i = frontier[head];
        const geom::Point p = cells.point(i);
        for (geom::Dir d : geom::kAllDirs) {
          const std::uint32_t q = cells.find_near(p + geom::delta(d), i);
          if (q != cells.npos && cells[q].mark == n && cells[q].seen != n) {
            cells[q].seen = n;
            frontier.push_back(q);
          }
        }
      }
      if (frontier.size() != points) {
        report("net '" + net.net(n).name + "' geometry is disconnected");
      }
    }
    for (TermId t : net.net(n).terms) {
      if (!on_net(dia.term_pos(t))) {
        report("net '" + net.net(n).name + "' does not reach terminal '" +
               net.term(t).name + "'");
      }
    }
  }
  span.arg("cells", static_cast<long long>(cells.size()));
  span.arg("nets_checked", nets_checked);
  span.arg("slots", static_cast<long long>(cells.capacity()));

  return problems;
}

}  // namespace

std::vector<std::string> validate_diagram(const Diagram& dia, bool require_all_routed) {
  NA_TRACE_SPAN(span, "validate.full");
  auto problems = validate_impl(dia, require_all_routed, nullptr, span);
  span.arg("issues", static_cast<long long>(problems.size()));
  return problems;
}

std::vector<std::string> validate_region(const Diagram& dia, geom::Rect region,
                                         bool require_all_routed) {
  NA_TRACE_SPAN(span, "validate.region");
  if (region.empty()) return {};
  auto problems = validate_impl(dia, require_all_routed, &region, span);
  span.arg("issues", static_cast<long long>(problems.size()));
  return problems;
}

}  // namespace na
