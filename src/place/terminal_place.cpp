#include "place/terminal_place.hpp"

#include <limits>
#include <vector>

namespace na {

void place_system_terminals(Diagram& dia) {
  const Network& net = dia.network();
  if (net.system_terms().empty()) return;
  const geom::Rect ring = dia.placement_bounds().expanded(1);

  // Candidate ring positions, deterministic order.
  std::vector<geom::Point> candidates;
  for (int x = ring.lo.x; x <= ring.hi.x; ++x) {
    candidates.push_back({x, ring.lo.y});
    candidates.push_back({x, ring.hi.y});
  }
  for (int y = ring.lo.y + 1; y < ring.hi.y; ++y) {
    candidates.push_back({ring.lo.x, y});
    candidates.push_back({ring.hi.x, y});
  }
  std::vector<bool> used(candidates.size(), false);

  for (TermId st : net.system_terms()) {
    if (dia.system_term_placed(st)) continue;
    const Terminal& term = net.term(st);

    // GRAVITY_TERMINAL: centre of the placed terminals sharing the net.
    std::int64_t sx = 0, sy = 0, cnt = 0;
    if (term.net != kNone) {
      for (TermId t : net.net(term.net).terms) {
        if (t == st || !dia.term_placed(t)) continue;
        const geom::Point p = dia.term_pos(t);
        sx += p.x;
        sy += p.y;
        ++cnt;
      }
    }
    geom::Point g;
    if (cnt > 0) {
      g = {static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
    } else {
      // Unconnected (or dangling) terminal: fall back to the side its type
      // suggests, vertically centred.
      const int mid_y = (ring.lo.y + ring.hi.y) / 2;
      g = {term.type == TermType::Out ? ring.hi.x : ring.lo.x, mid_y};
    }
    // Inputs prefer the left edge, outputs the right (rule 4): nudge the
    // gravity point outward so ties resolve to the conventional side.
    if (term.type == TermType::In) g.x -= 1;
    if (term.type == TermType::Out) g.x += 1;

    // PLACE_TERMINAL: nearest free ring position.
    int best = -1;
    std::int64_t best_d2 = std::numeric_limits<std::int64_t>::max();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      const std::int64_t d2 = geom::dist2(candidates[i], g);
      if (d2 < best_d2) {
        best = static_cast<int>(i);
        best_d2 = d2;
      }
    }
    if (best < 0) break;  // ring exhausted (pathological)
    used[best] = true;
    dia.place_system_term(st, candidates[best]);
  }
}

}  // namespace na
