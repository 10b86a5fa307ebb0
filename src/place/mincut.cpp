#include "place/mincut.hpp"

#include <algorithm>
#include <memory>

#include "place/terminal_place.hpp"

namespace na {
namespace {

constexpr int kSpacing = 2;            ///< empty tracks around each module
constexpr int kImprovementPasses = 8;  ///< pairwise-swap passes per split

struct SliceNode {
  std::vector<ModuleId> mods;  // leaf: exactly one
  bool vertical_cut = false;   // children side by side (split in x)
  std::unique_ptr<SliceNode> a;
  std::unique_ptr<SliceNode> b;
  geom::Point size;
};

std::unique_ptr<SliceNode> build_slices(const Network& net,
                                        std::vector<ModuleId> mods, int depth) {
  auto node = std::make_unique<SliceNode>();
  if (mods.size() == 1) {
    node->size = net.module(mods[0]).size + geom::Point{2 * kSpacing, 2 * kSpacing};
    node->mods = std::move(mods);
    return node;
  }
  auto first = mincut_bipartition(net, mods, kImprovementPasses);
  std::vector<ModuleId> second;
  for (ModuleId m : mods) {
    if (std::find(first.begin(), first.end(), m) == first.end()) second.push_back(m);
  }
  node->mods = std::move(mods);
  node->vertical_cut = depth % 2 == 0;  // alternate the cut-line direction
  node->a = build_slices(net, std::move(first), depth + 1);
  node->b = build_slices(net, std::move(second), depth + 1);
  if (node->vertical_cut) {
    node->size = {node->a->size.x + node->b->size.x,
                  std::max(node->a->size.y, node->b->size.y)};
  } else {
    node->size = {std::max(node->a->size.x, node->b->size.x),
                  node->a->size.y + node->b->size.y};
  }
  return node;
}

void assign_positions(Diagram& dia, const SliceNode& node, geom::Point origin) {
  if (node.a == nullptr) {
    dia.place_module(node.mods[0], origin + geom::Point{kSpacing, kSpacing});
    return;
  }
  assign_positions(dia, *node.a, origin);
  const geom::Point shift = node.vertical_cut ? geom::Point{node.a->size.x, 0}
                                              : geom::Point{0, node.a->size.y};
  assign_positions(dia, *node.b, origin + shift);
}

}  // namespace

int cut_size(const Network& net, const std::vector<ModuleId>& a,
             const std::vector<ModuleId>& b) {
  std::vector<int> side(net.module_count(), 0);
  for (ModuleId m : a) side[m] = 1;
  for (ModuleId m : b) side[m] = 2;
  int cut = 0;
  for (const Net& n : net.nets()) {
    bool in_a = false;
    bool in_b = false;
    for (TermId t : n.terms) {
      const ModuleId m = net.term(t).module;
      if (m == kNone) continue;
      in_a |= side[m] == 1;
      in_b |= side[m] == 2;
    }
    cut += (in_a && in_b) ? 1 : 0;
  }
  return cut;
}

std::vector<ModuleId> mincut_bipartition(const Network& net,
                                         const std::vector<ModuleId>& mods,
                                         int improvement_passes) {
  // Initial balanced split: breadth-first over the connectivity graph keeps
  // tightly coupled modules together.
  std::vector<ModuleId> order;
  std::vector<bool> seen(net.module_count(), false);
  std::vector<bool> eligible(net.module_count(), false);
  for (ModuleId m : mods) eligible[m] = true;
  for (ModuleId root : mods) {
    if (seen[root]) continue;
    std::vector<ModuleId> frontier{root};
    seen[root] = true;
    while (!frontier.empty()) {
      const ModuleId m = frontier.front();
      frontier.erase(frontier.begin());
      order.push_back(m);
      for (ModuleId o : net.neighbors(m)) {
        if (eligible[o] && !seen[o]) {
          seen[o] = true;
          frontier.push_back(o);
        }
      }
    }
  }
  const size_t half = (order.size() + 1) / 2;
  std::vector<ModuleId> a(order.begin(), order.begin() + half);
  std::vector<ModuleId> b(order.begin() + half, order.end());

  // Pairwise-swap improvement: take the best-gain swap until none helps.
  for (int pass = 0; pass < improvement_passes; ++pass) {
    int best_gain = 0;
    size_t best_i = 0;
    size_t best_j = 0;
    const int current = cut_size(net, a, b);
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = 0; j < b.size(); ++j) {
        std::swap(a[i], b[j]);
        const int gain = current - cut_size(net, a, b);
        std::swap(a[i], b[j]);
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_gain <= 0) break;
    std::swap(a[best_i], b[best_j]);
  }
  return a;
}

void mincut_place(Diagram& dia) {
  const Network& net = dia.network();
  if (net.module_count() == 0) {
    place_system_terminals(dia);
    return;
  }
  std::vector<ModuleId> all(net.module_count());
  for (ModuleId m = 0; m < net.module_count(); ++m) all[m] = m;
  const auto root = build_slices(net, std::move(all), 0);
  assign_positions(dia, *root, {0, 0});
  place_system_terminals(dia);
  dia.normalize();
}

}  // namespace na
