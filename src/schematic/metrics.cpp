#include "schematic/metrics.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <unordered_map>

namespace na {
namespace {

/// Direction bits for the degree map (1 = a unit edge leaves this point in
/// that direction).
constexpr std::uint8_t dir_bit(geom::Dir d) {
  return static_cast<std::uint8_t>(1u << static_cast<int>(d));
}

}  // namespace

std::string DiagramStats::summary() const {
  std::ostringstream os;
  os << modules << " modules, " << nets << " nets (" << routed << " routed, "
     << unrouted << " unrouted), len=" << wire_length << " bends=" << bends
     << " cross=" << crossings << " branch=" << branch_points << " area=" << width
     << "x" << height << " flow-viol=" << flow_violations;
  return os.str();
}

int flow_violations(const Diagram& dia) {
  const Network& net = dia.network();
  int violations = 0;
  for (const Net& n : net.nets()) {
    for (TermId from : n.terms) {
      const Terminal& tf = net.term(from);
      if (tf.module != kNone && !dia.module_placed(tf.module)) continue;
      if (tf.is_system() && !dia.system_term_placed(from)) continue;
      if (tf.type == TermType::In) continue;
      for (TermId to : n.terms) {
        if (to == from) continue;
        const Terminal& tt = net.term(to);
        if (tt.type != TermType::In) continue;
        if (tt.module != kNone && !dia.module_placed(tt.module)) continue;
        if (tt.is_system() && !dia.system_term_placed(to)) continue;
        if (dia.term_pos(from).x > dia.term_pos(to).x) ++violations;
      }
    }
  }
  return violations;
}

DiagramStats compute_stats(const Diagram& dia) {
  const Network& net = dia.network();
  DiagramStats s;
  s.modules = net.module_count();
  s.nets = net.net_count();
  s.routed = dia.routed_count();
  s.unrouted = dia.unrouted_count();

  const geom::Rect bounds = dia.placement_bounds();
  s.width = bounds.width();
  s.height = bounds.height();
  s.flow_violations = flow_violations(dia);

  // Occupancy maps (point -> occupying net per orientation) for crossings,
  // and per-net degree masks for branch points.
  std::unordered_map<std::uint64_t, NetId> h_occ;
  std::unordered_map<std::uint64_t, NetId> v_occ;

  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    s.wire_length += r.total_length();
    s.bends += r.bend_count();
    std::unordered_map<std::uint64_t, std::uint8_t> degree;
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a == b) continue;
        const bool horizontal = a.y == b.y;
        const geom::Dir d = geom::step_dir(a, {a.x + (b.x > a.x) - (b.x < a.x),
                                               a.y + (b.y > a.y) - (b.y < a.y)});
        const geom::Point step = geom::delta(d);
        for (geom::Point p = a; p != b; p += step) {
          const geom::Point q = p + step;
          degree[geom::point_key(p)] |= dir_bit(d);
          degree[geom::point_key(q)] |= dir_bit(geom::opposite(d));
          (horizontal ? h_occ : v_occ)[geom::point_key(p)] = n;
          (horizontal ? h_occ : v_occ)[geom::point_key(q)] = n;
        }
      }
    }
    for (const auto& [pt, mask] : degree) {
      if (std::popcount(mask) >= 3) ++s.branch_points;
    }
  }

  for (const auto& [pt, hn] : h_occ) {
    auto it = v_occ.find(pt);
    if (it != v_occ.end() && it->second != hn) ++s.crossings;
  }
  return s;
}

}  // namespace na
