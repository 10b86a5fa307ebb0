#include "place/improve.hpp"

#include <limits>

namespace na {
namespace {

constexpr int kMaxPasses = 10;  ///< full sweeps over all module pairs

/// Does placing module `m` at `pos` (with its current rotation) collide
/// with any other placed module?
bool collides(const Diagram& dia, ModuleId m, geom::Point pos) {
  const geom::Rect candidate = geom::Rect::from_size(pos, dia.module_size(m));
  const Network& net = dia.network();
  for (ModuleId o = 0; o < net.module_count(); ++o) {
    if (o == m || !dia.module_placed(o)) continue;
    if (candidate.overlaps(dia.module_rect(o))) return true;
  }
  return false;
}

}  // namespace

long estimate_wire_length(const Diagram& dia) {
  const Network& net = dia.network();
  long total = 0;
  for (const Net& n : net.nets()) {
    geom::Rect box;
    for (TermId t : n.terms) {
      if (dia.term_placed(t)) box = box.hull(dia.term_pos(t));
    }
    if (!box.empty()) total += box.width() + box.height();
  }
  return total;
}

ImproveReport improve_by_exchange(Diagram& dia, const ImproveOptions& opt) {
  const Network& net = dia.network();
  ImproveReport report;
  report.initial_length = estimate_wire_length(dia);
  long current = report.initial_length;

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (ModuleId a = 0; a < net.module_count(); ++a) {
      if (!dia.module_placed(a) || dia.placed(a).fixed) continue;
      for (ModuleId b = a + 1; b < net.module_count(); ++b) {
        if (!dia.module_placed(b) || dia.placed(b).fixed) continue;
        if (++report.trials > opt.max_trials) return report;
        const geom::Point pa = dia.placed(a).pos;
        const geom::Point pb = dia.placed(b).pos;
        // Align swapped modules on the other's lower-left corner; unequal
        // sizes may collide, in which case the swap is rejected.
        dia.place_module(a, pb, dia.placed(a).rot);
        dia.place_module(b, pa, dia.placed(b).rot);
        long candidate = std::numeric_limits<long>::max();
        if (!collides(dia, a, pb) && !collides(dia, b, pa)) {
          candidate = estimate_wire_length(dia);
        }
        if (candidate < current) {
          current = candidate;
          ++report.swaps;
          improved = true;
        } else {
          dia.place_module(a, pa, dia.placed(a).rot);
          dia.place_module(b, pb, dia.placed(b).rot);
        }
      }
    }
    if (!improved) break;
  }
  report.final_length = current;
  return report;
}

}  // namespace na
