#include "place/columnar.hpp"

#include <algorithm>
#include <numeric>

#include "place/boxes.hpp"
#include "place/terminal_place.hpp"

namespace na {
namespace {

constexpr int kSweeps = 4;  ///< barycentre reordering passes
constexpr int kGapX = 4;    ///< tracks between columns
constexpr int kGapY = 2;    ///< tracks between symbols in a column

}  // namespace

std::vector<int> columnar_levels(const Network& net) {
  const int n = net.module_count();
  std::vector<int> level(n, 0);
  // Longest-path layering over the drives relation; at most n relaxation
  // rounds, which also caps levels in the presence of feedback loops (the
  // "backtracking" the paper's simplification excludes).
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (ModuleId a = 0; a < n; ++a) {
      for (ModuleId b = 0; b < n; ++b) {
        if (a == b || !drives_module(net, a, b)) continue;
        if (level[b] < level[a] + 1 && level[a] + 1 < n) {
          level[b] = level[a] + 1;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return level;
}

void columnar_place(Diagram& dia) {
  const Network& net = dia.network();
  const int n = net.module_count();
  if (n == 0) {
    place_system_terminals(dia);
    return;
  }
  const std::vector<int> level = columnar_levels(net);
  const int columns = *std::max_element(level.begin(), level.end()) + 1;

  std::vector<std::vector<ModuleId>> column(columns);
  for (ModuleId m = 0; m < n; ++m) column[level[m]].push_back(m);

  // Barycentre crossing reduction: order each column by the average rank of
  // the connected modules in the neighbouring column, sweeping forward and
  // backward.
  std::vector<int> rank(n, 0);
  auto refresh_ranks = [&]() {
    for (const auto& col : column) {
      for (size_t i = 0; i < col.size(); ++i) rank[col[i]] = static_cast<int>(i);
    }
  };
  refresh_ranks();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const bool forward = sweep % 2 == 0;
    for (int ci = forward ? 1 : columns - 2; forward ? ci < columns : ci >= 0;
         ci += forward ? 1 : -1) {
      const int ref = forward ? ci - 1 : ci + 1;
      auto barycentre = [&](ModuleId m) {
        int sum = 0;
        int cnt = 0;
        for (ModuleId o : net.neighbors(m)) {
          if (level[o] == ref) {
            sum += rank[o];
            ++cnt;
          }
        }
        return cnt == 0 ? 1e9 : static_cast<double>(sum) / cnt;
      };
      std::stable_sort(column[ci].begin(), column[ci].end(),
                       [&](ModuleId a, ModuleId b) {
                         return barycentre(a) < barycentre(b);
                       });
      refresh_ranks();
    }
  }

  // Coordinates: columns left to right, symbols stacked bottom-up, columns
  // vertically centred on the tallest one.
  std::vector<int> col_width(columns, 0);
  std::vector<int> col_height(columns, 0);
  for (int c = 0; c < columns; ++c) {
    for (ModuleId m : column[c]) {
      col_width[c] = std::max(col_width[c], net.module(m).size.x);
      col_height[c] += net.module(m).size.y + kGapY;
    }
  }
  const int max_height = *std::max_element(col_height.begin(), col_height.end());
  int x = 0;
  for (int c = 0; c < columns; ++c) {
    int y = (max_height - col_height[c]) / 2;
    for (ModuleId m : column[c]) {
      dia.place_module(m, {x, y});
      y += net.module(m).size.y + kGapY;
    }
    x += col_width[c] + kGapX;
  }

  place_system_terminals(dia);
  dia.normalize();
}

}  // namespace na
