#include "route/global.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace na {
namespace {

constexpr int kMargin = 4;  ///< empty ring around the placement

struct QueueEntry {
  double cost;
  int cell;
  bool operator>(const QueueEntry& o) const { return cost > o.cost; }
};

}  // namespace

GlobalRouteResult global_route(const Diagram& dia, const GlobalRouteOptions& opt) {
  const Network& net = dia.network();
  GlobalRouteResult result;
  geom::Rect bounds = dia.placement_bounds();
  if (bounds.empty()) return result;
  result.area = bounds.expanded(kMargin);
  const int g = std::max(opt.gcell_size, 2);
  result.cols = (result.area.width() + g) / g;
  result.rows = (result.area.height() + g) / g;
  if (result.cols < 1 || result.rows < 1) return result;

  // Module coverage mask over track space for capacity computation.
  std::vector<geom::Rect> blocks;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (dia.module_placed(m)) blocks.push_back(dia.module_rect(m));
  }
  auto blocked = [&](geom::Point p) {
    for (const geom::Rect& r : blocks) {
      if (r.contains(p)) return true;
    }
    return false;
  };

  // Boundary capacities: free tracks along each gcell-to-gcell edge.
  result.h_capacity.assign(static_cast<size_t>(result.cols) *
                               std::max(result.rows - 1, 0),
                           0);
  result.v_capacity.assign(static_cast<size_t>(std::max(result.cols - 1, 0)) *
                               result.rows,
                           0);
  result.h_demand = result.h_capacity;
  result.v_demand = result.v_capacity;
  auto x_of = [&](int col) { return result.area.lo.x + col * g; };
  auto y_of = [&](int row) { return result.area.lo.y + row * g; };
  for (int row = 0; row + 1 < result.rows; ++row) {
    const int by = std::min(y_of(row + 1) - 1, result.area.hi.y);
    for (int col = 0; col < result.cols; ++col) {
      int cap = 0;
      const int x_end = std::min(x_of(col + 1) - 1, result.area.hi.x);
      for (int x = x_of(col); x <= x_end; ++x) {
        if (!blocked({x, by}) && !blocked({x, by + 1})) ++cap;
      }
      result.h_capacity[result.h_index(col, row)] = cap;
    }
  }
  for (int row = 0; row < result.rows; ++row) {
    const int y_end = std::min(y_of(row + 1) - 1, result.area.hi.y);
    for (int col = 0; col + 1 < result.cols; ++col) {
      const int bx = std::min(x_of(col + 1) - 1, result.area.hi.x);
      int cap = 0;
      for (int y = y_of(row); y <= y_end; ++y) {
        if (!blocked({bx, y}) && !blocked({bx + 1, y})) ++cap;
      }
      result.v_capacity[result.v_index(col, row)] = cap;
    }
  }

  auto gcell_of = [&](geom::Point p) {
    return geom::Point{std::clamp((p.x - result.area.lo.x) / g, 0, result.cols - 1),
                       std::clamp((p.y - result.area.lo.y) / g, 0, result.rows - 1)};
  };
  auto cell_index = [&](geom::Point c) { return c.y * result.cols + c.x; };
  auto cell_point = [&](int idx) {
    return geom::Point{idx % result.cols, idx / result.cols};
  };

  // Congestion-aware edge cost: crossing a full boundary costs 1; each unit
  // of demand at or beyond capacity adds the overflow penalty, steering
  // later nets around bottlenecks (the paper's "routed around to avoid
  // critical bottlenecks").
  auto edge_cost = [&](int demand, int capacity) {
    double cost = 1.0;
    if (demand + 1 > capacity) cost += opt.overflow_cost * (demand + 1 - capacity);
    return cost;
  };

  // Nets, longest span first.
  struct Job {
    NetId n;
    std::vector<geom::Point> pins;  // gcell coordinates, deduplicated
    int span;
  };
  std::vector<Job> jobs;
  for (NetId n = 0; n < net.net_count(); ++n) {
    Job job{n, {}, 0};
    geom::Rect box;
    for (TermId t : net.net(n).terms) {
      if (!dia.term_placed(t)) continue;
      const geom::Point cell = gcell_of(dia.term_pos(t));
      box = box.hull(cell);
      if (std::find(job.pins.begin(), job.pins.end(), cell) == job.pins.end()) {
        job.pins.push_back(cell);
      }
    }
    if (job.pins.size() < 1 ||
        (job.pins.size() < 2 && net.net(n).terms.size() < 2)) {
      continue;
    }
    job.span = box.width() + box.height();
    jobs.push_back(std::move(job));
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) { return a.span > b.span; });

  const int ncells = result.cols * result.rows;
  for (const Job& job : jobs) {
    GlobalNetRoute gr;
    gr.net = job.n;
    std::vector<bool> in_tree(ncells, false);
    in_tree[cell_index(job.pins[0])] = true;
    gr.routed = true;
    for (size_t p = 1; p < job.pins.size(); ++p) {
      // Dijkstra from the pin to the growing tree.
      std::vector<double> best(ncells, std::numeric_limits<double>::max());
      std::vector<int> parent(ncells, -1);
      std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
      const int start = cell_index(job.pins[p]);
      best[start] = 0;
      open.push({0, start});
      int reached = -1;
      while (!open.empty()) {
        const QueueEntry e = open.top();
        open.pop();
        if (e.cost != best[e.cell]) continue;
        if (in_tree[e.cell]) {
          reached = e.cell;
          break;
        }
        const geom::Point c = cell_point(e.cell);
        auto relax = [&](geom::Point to, int demand, int capacity) {
          const int ti = cell_index(to);
          const double cost = e.cost + edge_cost(demand, capacity);
          if (cost < best[ti]) {
            best[ti] = cost;
            parent[ti] = e.cell;
            open.push({cost, ti});
          }
        };
        if (c.y + 1 < result.rows) {
          relax({c.x, c.y + 1}, result.h_demand[result.h_index(c.x, c.y)],
                result.h_capacity[result.h_index(c.x, c.y)]);
        }
        if (c.y > 0) {
          relax({c.x, c.y - 1}, result.h_demand[result.h_index(c.x, c.y - 1)],
                result.h_capacity[result.h_index(c.x, c.y - 1)]);
        }
        if (c.x + 1 < result.cols) {
          relax({c.x + 1, c.y}, result.v_demand[result.v_index(c.x, c.y)],
                result.v_capacity[result.v_index(c.x, c.y)]);
        }
        if (c.x > 0) {
          relax({c.x - 1, c.y}, result.v_demand[result.v_index(c.x - 1, c.y)],
                result.v_capacity[result.v_index(c.x - 1, c.y)]);
        }
      }
      if (reached < 0) {
        gr.routed = false;
        break;
      }
      // Commit the path: bump demands, extend the tree.
      for (int cur = reached; parent[cur] != -1; cur = parent[cur]) {
        const geom::Point a = cell_point(parent[cur]);
        const geom::Point b = cell_point(cur);
        gr.segments.push_back({a, b});
        in_tree[cell_index(a)] = true;
        in_tree[cell_index(b)] = true;
        if (a.x == b.x) {
          result.h_demand[result.h_index(a.x, std::min(a.y, b.y))] += 1;
        } else {
          result.v_demand[result.v_index(std::min(a.x, b.x), a.y)] += 1;
        }
      }
    }
    (gr.routed ? result.assigned : result.failed) += 1;
    result.nets.push_back(std::move(gr));
  }

  for (size_t i = 0; i < result.h_demand.size(); ++i) {
    result.total_overflow += std::max(0, result.h_demand[i] - result.h_capacity[i]);
    result.max_congestion = std::max(result.max_congestion, result.h_demand[i]);
  }
  for (size_t i = 0; i < result.v_demand.size(); ++i) {
    result.total_overflow += std::max(0, result.v_demand[i] - result.v_capacity[i]);
    result.max_congestion = std::max(result.max_congestion, result.v_demand[i]);
  }
  return result;
}

}  // namespace na
