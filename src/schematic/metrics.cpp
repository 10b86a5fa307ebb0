#include "schematic/metrics.hpp"

#include <bit>
#include <cstdint>
#include <sstream>

#include "geom/point_table.hpp"

namespace na {
namespace {

/// Direction bits for the degree mask (1 = a unit edge leaves this point in
/// that direction).
constexpr std::uint8_t dir_bit(geom::Dir d) {
  return static_cast<std::uint8_t>(1u << static_cast<int>(d));
}

struct Occupancy {
  NetId h = kNone;         ///< last net through the point horizontally
  NetId v = kNone;         ///< last net through the point vertically
  NetId mask_net = kNone;  ///< the net `mask` belongs to
  std::uint8_t mask = 0;   ///< dir_bit of each unit edge mask_net has here
};

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
      if (net.term(from).type == TermType::In || !dia.term_placed(from)) continue;
      for (TermId to : n.terms) {
        if (to == from || net.term(to).type != TermType::In) continue;
        if (!dia.term_placed(to)) continue;
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

  // One record per drawn point: the last net through it per orientation
  // (for crossings), and the degree mask of the last net to reach it (for
  // branch points, counted once per net when its mask reaches three bits).
  size_t bound = 0;
  for (const NetRoute& r : dia.routes()) bound += r.cell_bound();
  geom::PointTable<Occupancy> cells(bound);
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    s.wire_length += r.total_length();
    s.bends += r.bend_count();
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a == b || (a.x != b.x && a.y != b.y)) continue;
        const geom::Dir d = geom::step_dir(a, b);
        for (geom::Point p = a;; p += geom::delta(d)) {
          Occupancy& c = cells[cells.insert(p)];
          (geom::is_horizontal(d) ? c.h : c.v) = n;
          if (c.mask_net != n) {
            c.mask_net = n;
            c.mask = 0;
          }
          const int degree = std::popcount(c.mask);
          if (p != a) c.mask |= dir_bit(geom::opposite(d));
          if (p != b) c.mask |= dir_bit(d);
          if (degree < 3 && std::popcount(c.mask) >= 3) ++s.branch_points;
          if (p == b) break;
        }
      }
    }
  }
  for (std::uint32_t i = 0; i < cells.size(); ++i) {
    const Occupancy& c = cells[i];
    if (c.h != kNone && c.v != kNone && c.h != c.v) ++s.crossings;
  }
  return s;
}

}  // namespace na
