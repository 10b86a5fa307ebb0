#include "schematic/validate.hpp"

#include "geom/rect_index.hpp"
#include "obs/trace.hpp"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace na {
namespace {

/// Shared checker body.  `region == nullptr` validates the whole diagram;
/// otherwise only geometry intersecting `*region` is examined (see the
/// scope rules on validate_region in the header).  The per-point work is
/// identical in both modes, so an in-region violation produces the same
/// message either way.
std::vector<std::string> validate_impl(const Diagram& dia,
                                       bool require_all_routed,
                                       const geom::Rect* region) {
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

  // --- per-net terminal cells ------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> term_cell;  // point -> owning net
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (term.net == kNone) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    term_cell[geom::point_key(dia.term_pos(t))] = term.net;
  }

  // --- routing geometry -------------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> h_occ;
  std::unordered_map<std::uint64_t, NetId> v_occ;
  // Points where a net has a corner, branch, or endpoint ("nodes"): no other
  // net may touch these at all.
  std::unordered_map<std::uint64_t, NetId> node_of;
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
          node_of[geom::point_key(pl[0])] = n;
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
        // overlap reports come out in the same order as a full validation.
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
          auto& occ = horizontal ? h_occ : v_occ;
          auto [it, inserted] = occ.emplace(geom::point_key(p), n);
          if (!inserted && it->second != n) {
            report("nets '" + net.net(n).name + "' and '" + net.net(it->second).name +
                   "' overlap at " + geom::to_string(p));
          }
          if (p == to) break;
        }
      }
      if (in_scope(pl.front())) node_of[geom::point_key(pl.front())] = n;
      if (in_scope(pl.back())) node_of[geom::point_key(pl.back())] = n;
      for (size_t i = 1; i + 1 < pl.size(); ++i) {
        if (in_scope(pl[i])) node_of[geom::point_key(pl[i])] = n;  // corner
      }
    }
    if (require_all_routed && region != nullptr && !r.routed && touches[n] &&
        !net.net(n).terms.empty()) {
      report("net '" + net.net(n).name + "' unrouted");
    }
  }

  // --- nets vs module symbols and foreign terminals ---------------------------
  auto check_point = [&](geom::Point p, NetId n) {
    const auto tc = term_cell.find(geom::point_key(p));
    const bool own_terminal = tc != term_cell.end() && tc->second == n;
    if (tc != term_cell.end() && tc->second != n) {
      report("net '" + net.net(n).name + "' touches a foreign terminal at " +
             geom::to_string(p));
      return;
    }
    if (own_terminal) return;
    bool entered = false;
    mod_index.containing(p, [&](int k) {
      report("net '" + net.net(n).name + "' enters module '" +
             net.module(scoped_mods[k]).name + "' at " + geom::to_string(p));
      entered = true;
      return true;
    });
    if (entered) return;
    const auto at = terms_at.find(geom::point_key(p));
    if (at == terms_at.end()) return;
    for (const size_t k : at->second) {
      const TermId t = scoped_terms[k];
      if (net.term(t).net != n) {
        report("net '" + net.net(n).name + "' covers system terminal '" +
               net.term(t).name + "'");
      }
    }
  };
  for (const auto& [pt, n] : h_occ) check_point(geom::point_of_key(pt), n);
  for (const auto& [pt, n] : v_occ) {
    if (auto it = h_occ.find(pt); it == h_occ.end() || it->second != n) {
      check_point(geom::point_of_key(pt), n);
    }
  }

  // --- node contact rule: a corner/endpoint of net A may not be touched by
  // any other net (crossing requires both straight through).
  for (const auto& [pt, n] : node_of) {
    for (const auto* occ : {&h_occ, &v_occ}) {
      auto it = occ->find(pt);
      if (it != occ->end() && it->second != n) {
        report("net '" + net.net(it->second).name + "' touches a node of net '" +
               net.net(n).name + "' at " + geom::to_string(geom::point_of_key(pt)));
      }
    }
  }

  // --- connectivity: each routed net is one figure containing all terminals --
  // In region mode only the nets with in-scope geometry are re-checked, but
  // always over their *full* geometry: being one figure is not a local
  // property, and a patch can only disconnect a net at an edited point.
  // The per-net sets and the BFS queue are reused across nets; clearing
  // changes which point the BFS starts from, and reachability does not
  // depend on that.
  std::unordered_set<std::uint64_t> points;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier;
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (!r.routed || !touches[n]) continue;
    points.clear();
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) continue;
        const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
        for (geom::Point p = a;; p += step) {
          points.insert(geom::point_key(p));
          if (p == b) break;
        }
      }
      if (!pl.empty()) points.insert(geom::point_key(pl.front()));
    }
    if (points.empty()) {
      report("net '" + net.net(n).name + "' marked routed but has no geometry");
      continue;
    }
    // BFS over unit adjacency within the point set.
    seen.clear();
    frontier.clear();
    frontier.push_back(*points.begin());
    seen.insert(*points.begin());
    for (size_t head = 0; head < frontier.size(); ++head) {
      const geom::Point p = geom::point_of_key(frontier[head]);
      for (geom::Dir d : geom::kAllDirs) {
        const std::uint64_t q = geom::point_key(p + geom::delta(d));
        if (points.contains(q) && seen.insert(q).second) frontier.push_back(q);
      }
    }
    if (seen.size() != points.size()) {
      report("net '" + net.net(n).name + "' geometry is disconnected");
    }
    for (TermId t : net.net(n).terms) {
      if (!points.contains(geom::point_key(dia.term_pos(t)))) {
        report("net '" + net.net(n).name + "' does not reach terminal '" +
               net.term(t).name + "'");
      }
    }
  }

  return problems;
}

}  // namespace

std::vector<std::string> validate_diagram(const Diagram& dia, bool require_all_routed) {
  NA_TRACE_SPAN(span, "validate.full");
  auto problems = validate_impl(dia, require_all_routed, nullptr);
  span.arg("issues", static_cast<long long>(problems.size()));
  return problems;
}

std::vector<std::string> validate_region(const Diagram& dia, geom::Rect region,
                                         bool require_all_routed) {
  NA_TRACE_SPAN(span, "validate.region");
  if (region.empty()) return {};
  auto problems = validate_impl(dia, require_all_routed, &region);
  span.arg("issues", static_cast<long long>(problems.size()));
  return problems;
}

}  // namespace na
