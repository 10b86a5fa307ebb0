#include "place/boxes.hpp"

#include <algorithm>

namespace na {

bool drives_module(const Network& net, ModuleId from, ModuleId to) {
  if (from == to) return false;
  for (TermId tf : net.module(from).terms) {
    const Terminal& out = net.term(tf);
    if (out.net == kNone) continue;
    for (TermId tt : net.net(out.net).terms) {
      const Terminal& in = net.term(tt);
      if (in.module == to && drives(out.type, in.type)) return true;
    }
  }
  return false;
}

std::vector<ModuleId> construct_roots(const Network& net,
                                      const std::vector<ModuleId>& partition) {
  std::vector<bool> in_partition(net.module_count(), false);
  for (ModuleId m : partition) in_partition[m] = true;

  std::vector<ModuleId> roots;
  for (ModuleId m : partition) {
    bool is_root = false;
    // (a) connected with a module in another partition
    for (ModuleId o : net.neighbors(m)) {
      if (!in_partition[o]) {
        is_root = true;
        break;
      }
    }
    // (b) connected with an in/inout system terminal
    if (!is_root) {
      for (NetId n : net.nets_of(m)) {
        for (TermId t : net.net(n).terms) {
          const Terminal& term = net.term(t);
          if (term.is_system() &&
              (term.type == TermType::In || term.type == TermType::InOut)) {
            is_root = true;
            break;
          }
        }
        if (is_root) break;
      }
    }
    // (c) exactly one net to other modules
    if (!is_root) {
      int nets_to_others = 0;
      for (NetId n : net.nets_of(m)) {
        for (TermId t : net.net(n).terms) {
          const ModuleId om = net.term(t).module;
          if (om != kNone && om != m) {
            ++nets_to_others;
            break;
          }
        }
      }
      is_root = nets_to_others == 1;
    }
    if (is_root) roots.push_back(m);
  }
  return roots;
}

namespace {

void longest_path_dfs(const Network& net, const std::vector<ModuleId>& candidates,
                      std::vector<bool>& used, Box& path, int max_box_size,
                      Box& best) {
  if (static_cast<int>(path.size()) > static_cast<int>(best.size())) best = path;
  if (static_cast<int>(path.size()) >= max_box_size) return;
  const ModuleId tail = path.back();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (used[i] || !drives_module(net, tail, candidates[i])) continue;
    used[i] = true;
    path.push_back(candidates[i]);
    longest_path_dfs(net, candidates, used, path, max_box_size, best);
    path.pop_back();
    used[i] = false;
  }
}

}  // namespace

Box longest_path(const Network& net, ModuleId root,
                 const std::vector<ModuleId>& candidates, int max_box_size) {
  Box path{root};
  Box best{root};
  std::vector<bool> used(candidates.size(), false);
  for (size_t i = 0; i < candidates.size(); ++i) used[i] = candidates[i] == root;
  longest_path_dfs(net, candidates, used, path, max_box_size, best);
  return best;
}

std::vector<Box> form_boxes(const Network& net, const std::vector<ModuleId>& partition,
                            int max_box_size) {
  std::vector<Box> boxes;
  std::vector<ModuleId> remaining = partition;
  // The same modules in ascending id order: LONGEST_PATH's candidates.
  std::vector<ModuleId> candidates = partition;
  std::sort(candidates.begin(), candidates.end());
  while (!remaining.empty()) {
    // Roots are recomputed over the remaining modules; when no module
    // qualifies (fully internal cycle), every remaining module may head a
    // string so the loop always progresses.
    std::vector<ModuleId> roots = construct_roots(net, remaining);
    if (roots.empty()) roots = remaining;

    Box best;
    for (ModuleId r : roots) {
      Box path = longest_path(net, r, candidates, max_box_size);
      if (path.size() > best.size()) best = path;
    }
    boxes.push_back(best);
    for (ModuleId m : best) {
      std::erase(remaining, m);
      std::erase(candidates, m);
    }
  }
  return boxes;
}

}  // namespace na
