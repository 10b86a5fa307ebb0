#include "place/epitaxial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "place/terminal_place.hpp"

namespace na {

void epitaxial_place(Diagram& dia) {
  const Network& net = dia.network();
  const int n = net.module_count();
  if (n == 0) {
    place_system_terminals(dia);
    return;
  }

  // Slot grid sized for the largest module, with two empty tracks on each
  // side and one more.
  geom::Point cell{0, 0};
  for (const Module& m : net.modules()) {
    cell.x = std::max(cell.x, m.size.x);
    cell.y = std::max(cell.y, m.size.y);
  }
  cell += {2 * 2 + 1, 2 * 2 + 1};
  const int radius = static_cast<int>(std::ceil(std::sqrt(n))) + 1;
  const int side = 2 * radius + 1;
  std::vector<bool> slot_used(static_cast<size_t>(side) * side, false);
  auto slot_index = [&](int i, int j) {
    return static_cast<size_t>(j + radius) * side + (i + radius);
  };
  auto slot_center = [&](int i, int j) {
    return geom::Point{i * cell.x + cell.x / 2, j * cell.y + cell.y / 2};
  };

  std::vector<bool> placed(n, false);
  std::vector<geom::Point> centers(n);

  // Seed: the module with the most connections overall.
  ModuleId seed = 0;
  int seed_conns = -1;
  std::vector<bool> everyone(n, true);
  for (ModuleId m = 0; m < n; ++m) {
    const int c = net.connections_to(m, everyone);
    if (c > seed_conns) {
      seed = m;
      seed_conns = c;
    }
  }
  auto put = [&](ModuleId m, int i, int j) {
    slot_used[slot_index(i, j)] = true;
    placed[m] = true;
    centers[m] = slot_center(i, j);
    const geom::Point lower_left =
        centers[m] - geom::Point{net.module(m).size.x / 2, net.module(m).size.y / 2};
    dia.place_module(m, lower_left);
  };
  put(seed, 0, 0);

  for (int step = 1; step < n; ++step) {
    // Next: most connections with the placed structure.
    ModuleId next = kNone;
    int next_conns = -1;
    for (ModuleId m = 0; m < n; ++m) {
      if (placed[m]) continue;
      const int c = net.connections_to(m, placed);
      if (c > next_conns) {
        next = m;
        next_conns = c;
      }
    }
    // Best free slot: minimum total wire length to the placed neighbours,
    // weighted by connection multiplicity.
    long best_cost = std::numeric_limits<long>::max();
    int best_i = 0;
    int best_j = 0;
    for (int i = -radius; i <= radius; ++i) {
      for (int j = -radius; j <= radius; ++j) {
        if (slot_used[slot_index(i, j)]) continue;
        const geom::Point c = slot_center(i, j);
        long cost = 0;
        for (ModuleId o = 0; o < n; ++o) {
          if (!placed[o]) continue;
          const int k = net.connections(next, o);
          if (k > 0) cost += static_cast<long>(k) * manhattan(c, centers[o]);
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_i = i;
          best_j = j;
        }
      }
    }
    put(next, best_i, best_j);
  }

  place_system_terminals(dia);
  dia.normalize();
}

}  // namespace na
