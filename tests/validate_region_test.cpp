// Equivalence tests for region-scoped validation: validate_region over a
// region covering the interesting geometry must report exactly the issues
// full validate_diagram reports — on clean patched diagrams (both empty),
// on deliberately corrupted diagrams (both the same non-empty set), and
// across the incremental engine's edit-scenario corpus where the region is
// the patch router's dirty hull.  Issue lists are compared sorted there:
// region and full mode differ in which nets' unrouted reports come first.
//
// The differential tests further down pin the indexed symbol checks against
// a copy of the linear-scan checker on hash maps: there the messages must
// match exactly and in order, because the per-cell reports follow the
// documented first-touch order (validate.hpp) in both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/figures.hpp"
#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "gen/synth.hpp"
#include "geom/rect_index.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "netlist/text_io.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "route/shard_route.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

GeneratorOptions datapath_options() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 3;
  return opt;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A rect no diagram geometry escapes: full validation through the region-
/// scoped code path.
constexpr geom::Rect kEverywhere{{-10000000, -10000000}, {10000000, 10000000}};

/// Routed hand-placed LIFE diagram, rebuilt fresh so tests can corrupt it.
Diagram routed_life(const Network& net) {
  Diagram dia(net);
  gen::life_hand_placement(dia);
  const GeneratorOptions opt = fig67_options();
  EXPECT_EQ(route_all(dia, opt.router).nets_failed, 0);
  return dia;
}

TEST(ValidateRegion, EmptyRegionReportsNothing) {
  const Network net = gen::life_network();
  const Diagram dia = routed_life(net);
  EXPECT_TRUE(validate_region(dia, geom::Rect{}).empty());
}

TEST(ValidateRegion, CleanDiagramIsCleanEverywhere) {
  const Network net = gen::life_network();
  const Diagram dia = routed_life(net);
  EXPECT_TRUE(validate_diagram(dia).empty());
  EXPECT_TRUE(validate_region(dia, kEverywhere).empty());
}

// Three injected violations at once — a net dragged through a module
// symbol, one net's polyline duplicated into another net (overlap + node
// contact), and a routed net with a deleted polyline (disconnected figure).
// Region validation over a region covering everything must reproduce the
// full report verbatim.
TEST(ValidateRegion, WholeBoundsEqualsFullValidationOnCorruptedDiagram) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);

  // Violation 1: a stray polyline of net 0 inside module 5's symbol.
  const geom::Rect sym = dia.module_rect(5);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});

  // Violation 2: net 2 claims a copy of net 1's first polyline.
  ASSERT_FALSE(dia.route(1).polylines.empty());
  dia.route(2).polylines.push_back(dia.route(1).polylines.front());

  // Violation 3: a multi-polyline routed net loses one figure.
  for (NetId n = 3; n < net.net_count(); ++n) {
    if (dia.route(n).routed && dia.route(n).polylines.size() > 1) {
      dia.route(n).polylines.pop_back();
      break;
    }
  }

  const std::vector<std::string> full = sorted(validate_diagram(dia));
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere)), full);
}

// A corruption confined to a small region: validating just that region
// must report exactly what full validation reports (the rest of the
// diagram is clean, so the two sets coincide).
TEST(ValidateRegion, ScopedRegionSeesLocalCorruption) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);

  const geom::Rect sym = dia.module_rect(4);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});

  const std::vector<std::string> full = sorted(validate_diagram(dia));
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(sorted(validate_region(dia, sym.expanded(2))), full);
  // Looking somewhere else entirely sees nothing — out-of-region issues
  // are not searched for (that is the escalation rule's job).
  const geom::Rect elsewhere{{sym.hi.x + 50, sym.hi.y + 50},
                             {sym.hi.x + 60, sym.hi.y + 60}};
  EXPECT_TRUE(validate_region(dia, elsewhere).empty());
}

// require_all_routed: a net with drawn geometry flagged unrouted is
// reported by both modes when its geometry touches the region.
TEST(ValidateRegion, UnroutedNetWithGeometryIsReported) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (dia.route(n).routed && !dia.route(n).polylines.empty()) {
      dia.route(n).routed = false;
      break;
    }
  }
  const std::vector<std::string> full =
      sorted(validate_diagram(dia, /*require_all_routed=*/true));
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere, true)), full);
}

// The edit-scenario corpus: every patched diagram, validated over the
// patch router's dirty hull (what RegenSession::update actually checks),
// must agree with full validation.  Both come out clean — the point is
// that the region verdict RegenSession trusts is never *weaker* than the
// full check on these diagrams.
TEST(ValidateRegion, DirtyRegionAgreesWithFullAcrossEditCorpus) {
  struct Scenario {
    const char* name;
    GeneratorOptions opt;
    Network base;
    Network edited;
    bool hand_placed;  ///< adopt the LIFE hand placement instead of generating
  };
  std::vector<Scenario> corpus;

  const Network life = gen::life_network();
  {
    NetworkEditor ed(life);
    ed.move_terminal("rule11", "we", {6, 11});
    corpus.push_back({"life_repin", fig67_options(), life, ed.build(), true});
  }
  {
    NetworkEditor ed(life);
    ed.add_module("probe", "probe", {4, 4});
    ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
    ed.connect("mode", "probe", "i");
    corpus.push_back(
        {"life_add_module", fig67_options(), life, ed.build(), true});
  }
  {
    NetworkEditor ed(life);
    ed.remove_net("alive0");
    corpus.push_back(
        {"life_delete_net", fig67_options(), life, ed.build(), true});
  }
  const Network dp = gen::datapath_network({8});
  {
    NetworkEditor ed(dp);
    ed.add_module("probe", "probe", {4, 4});
    ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
    ed.connect("b2_acc", "probe", "i");
    corpus.push_back(
        {"datapath_add_module", datapath_options(), dp, ed.build(), false});
  }
  {
    NetworkEditor ed(dp);
    ed.remove_net("stat");
    corpus.push_back(
        {"datapath_delete_net", datapath_options(), dp, ed.build(), false});
  }

  for (Scenario& s : corpus) {
    SCOPED_TRACE(s.name);
    RegenSession session(s.opt);
    if (s.hand_placed) {
      Diagram hand(s.base);
      gen::life_hand_placement(hand);
      ASSERT_EQ(route_all(hand, s.opt.router).nets_failed, 0);
      session.adopt(s.base, hand);
    } else {
      session.update(s.base);
    }
    const Diagram& inc = session.update(s.edited);
    ASSERT_EQ(session.last().incremental, 1) << "corpus edit must be patchable";

    const geom::Rect dirty = session.last().dirty_region;
    EXPECT_FALSE(dirty.empty()) << "patch must report a dirty region";
    EXPECT_EQ(sorted(validate_region(inc, dirty)), sorted(validate_diagram(inc)));
    EXPECT_TRUE(validate_region(inc, dirty).empty());
  }
}


// --- differential: indexed symbol checks vs the linear-scan reference -------

namespace reference {

std::uint64_t key_of(geom::Point p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
         static_cast<std::uint32_t>(p.y);
}

geom::Point point_of(std::uint64_t k) {
  return {static_cast<std::int32_t>(k >> 32),
          static_cast<std::int32_t>(k & 0xffffffffu)};
}

/// The checker body with linear symbol scans: every wire cell tests every
/// scoped module, every terminal every module, every module pair is tested.
std::vector<std::string> validate(const Diagram& dia,
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
  std::vector<int> scoped_mods;  // placed modules whose rect touches the scope
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    if (region && !region->overlaps(dia.module_rect(m))) continue;
    scoped_mods.push_back(m);
  }
  std::vector<TermId> scoped_terms;  // placed system terminals in scope
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    scoped_terms.push_back(t);
  }
  for (size_t i = 0; i < scoped_mods.size(); ++i) {
    const int a = scoped_mods[i];
    for (size_t j = i + 1; j < scoped_mods.size(); ++j) {
      const int b = scoped_mods[j];
      if (dia.module_rect(a).overlaps(dia.module_rect(b))) {
        report("modules '" + net.module(a).name + "' and '" + net.module(b).name +
               "' overlap");
      }
    }
  }
  for (size_t i = 0; i < scoped_terms.size(); ++i) {
    const TermId ti = scoped_terms[i];
    const geom::Point pi = dia.term_pos(ti);
    for (const int m : scoped_mods) {
      if (dia.module_rect(m).contains(pi)) {
        report("system terminal '" + net.term(ti).name + "' overlaps module '" +
               net.module(m).name + "'");
      }
    }
    for (size_t j = i + 1; j < scoped_terms.size(); ++j) {
      const TermId tj = scoped_terms[j];
      if (dia.term_pos(tj) == pi) {
        report("system terminals '" + net.term(ti).name + "' and '" +
               net.term(tj).name + "' coincide");
      }
    }
  }
  if (!problems.empty()) return problems;  // routing checks need full placement

  // --- per-net terminal cells ------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> term_cell;  // point -> owning net
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (term.net == kNone) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    term_cell[key_of(dia.term_pos(t))] = term.net;
  }

  // --- routing geometry -------------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> h_occ;
  std::unordered_map<std::uint64_t, NetId> v_occ;
  // Points where a net has a corner, branch, or endpoint ("nodes"): no other
  // net may touch these at all.
  std::unordered_map<std::uint64_t, NetId> node_of;
  // Every key of the three maps, in the order the walk first touched it:
  // the documented order of the per-cell reports.
  std::vector<std::uint64_t> first_touch;
  auto touch = [&](std::uint64_t k) {
    if (!h_occ.contains(k) && !v_occ.contains(k) && !node_of.contains(k)) {
      first_touch.push_back(k);
    }
    return k;
  };
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
          node_of[touch(key_of(pl[0]))] = n;
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
          const geom::Rect clipped = [&] {
            const geom::Rect sb = geom::Segment{a, b}.bounds();
            return geom::Rect{{std::max(sb.lo.x, region->lo.x),
                               std::max(sb.lo.y, region->lo.y)},
                              {std::min(sb.hi.x, region->hi.x),
                               std::min(sb.hi.y, region->hi.y)}};
          }();
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
          auto [it, inserted] = occ.emplace(touch(key_of(p)), n);
          if (!inserted && it->second != n) {
            report("nets '" + net.net(n).name + "' and '" + net.net(it->second).name +
                   "' overlap at " + geom::to_string(p));
          }
          if (p == to) break;
        }
      }
      if (in_scope(pl.front())) node_of[touch(key_of(pl.front()))] = n;
      if (in_scope(pl.back())) node_of[touch(key_of(pl.back()))] = n;
      for (size_t i = 1; i + 1 < pl.size(); ++i) {
        if (in_scope(pl[i])) node_of[touch(key_of(pl[i]))] = n;  // corner
      }
    }
    if (require_all_routed && region != nullptr && !r.routed && touches[n] &&
        !net.net(n).terms.empty()) {
      report("net '" + net.net(n).name + "' unrouted");
    }
  }

  // --- nets vs module symbols and foreign terminals ---------------------------
  auto check_point = [&](geom::Point p, NetId n) {
    const auto tc = term_cell.find(key_of(p));
    const bool own_terminal = tc != term_cell.end() && tc->second == n;
    if (tc != term_cell.end() && tc->second != n) {
      report("net '" + net.net(n).name + "' touches a foreign terminal at " +
             geom::to_string(p));
      return;
    }
    if (own_terminal) return;
    for (const int m : scoped_mods) {
      if (dia.module_rect(m).contains(p)) {
        report("net '" + net.net(n).name + "' enters module '" + net.module(m).name +
               "' at " + geom::to_string(p));
        return;
      }
    }
    for (TermId t : scoped_terms) {
      if (dia.term_pos(t) == p && net.term(t).net != n) {
        report("net '" + net.net(n).name + "' covers system terminal '" +
               net.term(t).name + "'");
      }
    }
  };
  // At each cell, in first-touch order: the horizontal net, a different
  // vertical net, then the node contact rule (a corner/endpoint of net A
  // may not be touched by any other net: crossing requires both straight
  // through).
  for (const std::uint64_t pt : first_touch) {
    const auto h = h_occ.find(pt);
    const auto v = v_occ.find(pt);
    if (h != h_occ.end()) check_point(point_of(pt), h->second);
    if (v != v_occ.end() && (h == h_occ.end() || h->second != v->second)) {
      check_point(point_of(pt), v->second);
    }
    const auto node = node_of.find(pt);
    if (node == node_of.end()) continue;
    for (const NetId other : {h != h_occ.end() ? h->second : kNone,
                              v != v_occ.end() ? v->second : kNone}) {
      if (other != kNone && other != node->second) {
        report("net '" + net.net(other).name + "' touches a node of net '" +
               net.net(node->second).name + "' at " + geom::to_string(point_of(pt)));
      }
    }
  }

  // --- connectivity: each routed net is one figure containing all terminals --
  // In region mode only the nets with in-scope geometry are re-checked, but
  // always over their *full* geometry: being one figure is not a local
  // property, and a patch can only disconnect a net at an edited point.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (!r.routed || !touches[n]) continue;
    std::unordered_set<std::uint64_t> points;
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) continue;
        const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
        for (geom::Point p = a;; p += step) {
          points.insert(key_of(p));
          if (p == b) break;
        }
      }
      if (!pl.empty()) points.insert(key_of(pl.front()));
    }
    if (points.empty()) {
      report("net '" + net.net(n).name + "' marked routed but has no geometry");
      continue;
    }
    // BFS over unit adjacency within the point set.
    std::unordered_set<std::uint64_t> seen;
    std::queue<std::uint64_t> frontier;
    frontier.push(*points.begin());
    seen.insert(*points.begin());
    while (!frontier.empty()) {
      const geom::Point p = point_of(frontier.front());
      frontier.pop();
      for (geom::Dir d : geom::kAllDirs) {
        const std::uint64_t q = key_of(p + geom::delta(d));
        if (points.contains(q) && seen.insert(q).second) frontier.push(q);
      }
    }
    if (seen.size() != points.size()) {
      report("net '" + net.net(n).name + "' geometry is disconnected");
    }
    for (TermId t : net.net(n).terms) {
      if (!points.contains(key_of(dia.term_pos(t)))) {
        report("net '" + net.net(n).name + "' does not reach terminal '" +
               net.term(t).name + "'");
      }
    }
  }

  return problems;
}

}  // namespace reference

/// Both entry points against the reference, byte for byte and in order
/// (over kEverywhere, region mode walks every segment as full mode does, so
/// one reference run serves both).  `witness` must occur in some message;
/// nullptr means the diagram is clean.
void expect_matches_reference(const Diagram& dia, const char* witness) {
  const std::vector<std::string> expected = reference::validate(dia, false, nullptr);
  const std::vector<std::string> full = validate_diagram(dia);
  EXPECT_EQ(full, expected);
  EXPECT_EQ(validate_region(dia, kEverywhere), expected);
  if (witness == nullptr) {
    EXPECT_TRUE(full.empty()) << full.front();
    return;
  }
  EXPECT_TRUE(std::any_of(full.begin(), full.end(), [&](const std::string& m) {
    return m.find(witness) != std::string::npos;
  })) << "no message contains \"" << witness << "\"";
}

/// `net` plus one system terminal that no net connects: a net drawn over
/// it is the only way to reach the "covers system terminal" rule.
Network with_spare(Network net) {
  net.add_system_terminal("spare", TermType::In);
  return net;
}

TermId spare_of(const Network& net) { return net.system_terms().back(); }

Diagram routed_life_with_spare(const Network& net) {
  Diagram dia(net);
  gen::life_hand_placement(dia);
  dia.place_system_term(spare_of(net), dia.placement_bounds().hi + geom::Point{3, 3});
  EXPECT_EQ(route_all(dia, fig67_options().router).nets_failed, 0);
  return dia;
}

Diagram routed_mesh_with_spare(const Network& net) {
  Diagram dia(net);
  PlacerOptions popt;
  popt.max_part_size = 8;
  popt.max_box_size = 4;
  popt.max_connections = 16;
  place(dia, popt);
  RouterOptions ropt;
  ropt.margin = 6;
  shard_route_all(dia, ropt, ShardOptions{4, 1});
  return dia;
}

int pick(std::mt19937& rng, int n) {
  return std::uniform_int_distribution<int>(0, n - 1)(rng);
}

/// A routed net with drawn geometry, searched from a random start.
NetId pick_routed_net(const Diagram& dia, std::mt19937& rng) {
  const int count = dia.network().net_count();
  for (int k = 0, n = pick(rng, count);; ++k, n = (n + 1) % count) {
    if (dia.route(n).routed && !dia.route(n).polylines.empty()) return n;
    if (k == count) return kNone;
  }
}

struct Corruption {
  const char* name;
  const char* witness;  ///< text the injected violation must produce
  void (*apply)(Diagram&, std::mt19937&);
};

const Corruption kCorruptions[] = {
    {"overlapping modules", "modules '",
     [](Diagram& dia, std::mt19937& rng) {
       const int count = dia.network().module_count();
       const int a = pick(rng, count);
       const int b = (a + 1 + pick(rng, count - 1)) % count;
       dia.place_module(a, dia.placed(b).pos + geom::Point{1, 1}, dia.placed(a).rot);
     }},
    {"system terminal inside a module", "' overlaps module '",
     [](Diagram& dia, std::mt19937& rng) {
       const auto& terms = dia.network().system_terms();
       const int m = pick(rng, dia.network().module_count());
       dia.place_system_term(terms[pick(rng, static_cast<int>(terms.size()))],
                             dia.module_rect(m).center());
     }},
    {"coinciding system terminals", "' coincide",
     [](Diagram& dia, std::mt19937& rng) {
       const auto& terms = dia.network().system_terms();
       const int count = static_cast<int>(terms.size());
       const int a = pick(rng, count);
       const int b = (a + 1 + pick(rng, count - 1)) % count;
       dia.place_system_term(terms[b], dia.term_pos(terms[a]));
     }},
    {"net entering a module", "' enters module '",
     [](Diagram& dia, std::mt19937& rng) {
       const geom::Point c =
           dia.module_rect(pick(rng, dia.network().module_count())).center();
       dia.route(pick_routed_net(dia, rng)).polylines.push_back({c, c + geom::Point{1, 0}});
     }},
    {"net covering a foreign system terminal", "' covers system terminal 'spare'",
     [](Diagram& dia, std::mt19937& rng) {
       // The first cell past the start of a net's first long segment.
       for (;;) {
         for (const auto& pl : dia.route(pick_routed_net(dia, rng)).polylines) {
           for (size_t i = 1; i < pl.size(); ++i) {
             if (geom::manhattan(pl[i - 1], pl[i]) < 2) continue;
             const geom::Point step = {(pl[i].x > pl[i - 1].x) - (pl[i].x < pl[i - 1].x),
                                       (pl[i].y > pl[i - 1].y) - (pl[i].y < pl[i - 1].y)};
             dia.place_system_term(spare_of(dia.network()), pl[i - 1] + step);
             return;
           }
         }
       }
     }},
};

/// Every corruption, two seeded draws each, on `base` and on `base`
/// translated to all-negative coordinates (the bucket arithmetic must
/// floor, not truncate, left of and below the origin).
void run_differential(const Diagram& base) {
  Diagram negative = base;
  const geom::Rect b = negative.placement_bounds();
  negative.translate({-b.hi.x - 1001, -b.hi.y - 777});
  for (const Diagram* clean : {&base, static_cast<const Diagram*>(&negative)}) {
    SCOPED_TRACE(clean == &base ? "as placed" : "translated negative");
    expect_matches_reference(*clean, nullptr);
    for (const Corruption& c : kCorruptions) {
      SCOPED_TRACE(c.name);
      std::mt19937 rng(13);
      for (int draw = 0; draw < 2; ++draw) {
        Diagram dia = *clean;
        c.apply(dia, rng);
        expect_matches_reference(dia, c.witness);
      }
    }
  }
}

TEST(ValidateDifferential, LifeMatchesLinearScan) {
  const Network net = with_spare(gen::life_network());
  run_differential(routed_life_with_spare(net));
}

// Four kinds of per-cell violation, each at a cell a different net touched
// first: the reports follow the cells' first-touch order (nets by id, each
// polyline from its first point), not the nets' order or the rule's kind.
// "third" is walked last, but its endpoint lies on "first"'s wire, so that
// node contact is reported first.
TEST(ValidateOrder, PerCellReportsFollowFirstTouch) {
  Network net;
  const ModuleId m = net.add_module("m", "cell", {4, 4});
  const TermId pin = net.add_terminal(m, "a", TermType::In, {0, 2});
  const TermId spare = net.add_system_terminal("spare", TermType::In);
  const NetId first = net.add_net("first");
  const NetId second = net.add_net("second");
  const NetId third = net.add_net("third");
  net.connect(net.add_net("owner"), pin);
  Diagram dia(net);
  dia.place_module(m, {10, 10});
  dia.place_system_term(spare, {0, 5});
  ASSERT_EQ(dia.term_pos(pin), (geom::Point{10, 12}));
  dia.route(first).polylines = {{{0, 0}, {0, 8}}};
  dia.route(second).polylines = {{{5, 12}, {11, 12}}};
  dia.route(third).polylines = {{{3, 1}, {0, 1}}};
  const std::vector<std::string> expected{
      "net 'first' touches a node of net 'third' at (0,1)",
      "net 'first' covers system terminal 'spare'",
      "net 'second' touches a foreign terminal at (10,12)",
      "net 'second' enters module 'm' at (11,12)",
  };
  EXPECT_EQ(validate_diagram(dia), expected);
  EXPECT_EQ(validate_region(dia, kEverywhere), expected);
  EXPECT_EQ(reference::validate(dia, false, nullptr), expected);
}

TEST(ValidateDifferential, Mesh1kMatchesLinearScan) {
  gen::SynthOptions o;
  o.topology = gen::SynthTopology::GridMesh;
  o.modules = 1000;
  const Network net = with_spare(gen::synth_network(o));
  run_differential(routed_mesh_with_spare(net));
}

// Two small symbols a million grid units apart plus one huge symbol: the
// index must size its grid by the symbol count, never by the extent, and
// still give every verdict right.
TEST(ValidateDifferential, SparseExtentStaysSmallAndCorrect) {
  Network net;
  const int far_a = net.add_module("far_a", "cell", {4, 4});
  const int far_b = net.add_module("far_b", "cell", {4, 4});
  const int huge = net.add_module("huge", "block", {100000, 100000});
  Diagram dia(net);
  dia.place_module(far_a, {-1000000, -3});
  dia.place_module(far_b, {1000000, 5});
  dia.place_module(huge, {-50000, 200000});
  EXPECT_TRUE(validate_diagram(dia).empty());
  EXPECT_TRUE(validate_region(dia, kEverywhere).empty());

  const geom::RectIndex index(
      {dia.module_rect(far_a), dia.module_rect(far_b), dia.module_rect(huge)});
  EXPECT_LE(index.bucket_count(), 3u * 3 + 1);
  auto containing = [&](geom::Point p) {
    std::vector<int> hits;
    index.containing(p, [&](int i) {
      hits.push_back(i);
      return false;
    });
    return hits;
  };
  EXPECT_EQ(containing({0, 250000}), std::vector<int>{2});
  EXPECT_EQ(containing({1000002, 7}), std::vector<int>{1});
  EXPECT_TRUE(containing({0, 0}).empty());

  // Moving far_b into the huge symbol is an overlap, reported once.
  dia.place_module(far_b, {-49990, 200010});
  const std::vector<std::string> expected{"modules 'far_b' and 'huge' overlap"};
  EXPECT_EQ(validate_diagram(dia), expected);
  EXPECT_EQ(validate_region(dia, kEverywhere), expected);

  // Two short routed nets in opposite corners of the coordinate range, each
  // between two system terminals: the point table holds their cells, never
  // the extent between them.
  for (const char* name : {"lo", "hi"}) {
    const NetId n = net.add_net(name);
    net.connect(n, net.add_system_terminal(std::string(name) + "_in", TermType::In));
    net.connect(n, net.add_system_terminal(std::string(name) + "_out", TermType::Out));
  }
  Diagram routed(net);
  routed.place_module(far_a, {-1000000, -3});
  routed.place_module(far_b, {1000000, 5});
  routed.place_module(huge, {-50000, 200000});
  const geom::Point corner[] = {{-kMaxCoord, -kMaxCoord}, {kMaxCoord - 5, kMaxCoord}};
  for (NetId n = 0; n < 2; ++n) {
    const geom::Point to = corner[n] + geom::Point{5, 0};
    routed.place_system_term(net.net(n).terms[0], corner[n]);
    routed.place_system_term(net.net(n).terms[1], to);
    routed.route(n).polylines = {{corner[n], to}};
    routed.route(n).routed = true;
  }
  const geom::Rect range{{-kMaxCoord, -kMaxCoord}, {kMaxCoord, kMaxCoord}};
  obs::trace_reset();
  obs::trace_enable();
  EXPECT_TRUE(validate_diagram(routed).empty());
  obs::trace_disable();
  EXPECT_TRUE(validate_region(routed, range).empty());
  long long cells = -1;
  long long slots = -1;
  for (const obs::TraceEventView& ev : obs::trace_events()) {
    if (std::string(ev.name) != "validate.full") continue;
    for (const obs::TraceArg& arg : ev.args) {
      if (std::string(arg.key) == "cells") cells = arg.value;
      if (std::string(arg.key) == "slots") slots = arg.value;
    }
  }
  EXPECT_EQ(cells, 12);  // 6 cells per net
  EXPECT_GT(slots, cells);
  EXPECT_LE(slots, 4 * cells);
  obs::trace_reset();
  // A stray point of "hi" in the "lo" corner splits its figure.
  routed.route(1).polylines.push_back({{-kMaxCoord, -kMaxCoord + 3}});
  const std::vector<std::string> split{"net 'hi' geometry is disconnected"};
  EXPECT_EQ(validate_diagram(routed), split);
  EXPECT_EQ(validate_region(routed, range), split);
}

}  // namespace
}  // namespace na
