#include "place/gravity.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace na {
namespace {

/// Spatial index over the placed rectangles: a hash grid of 32-track
/// buckets, each listing the rects touching it.  Purely an accelerator —
/// overlap answers are identical to the linear scan, so the gravity
/// placer's output stays byte-identical to the reference implementation.
class RectIndex {
 public:
  void insert(geom::Rect r) {
    const int id = static_cast<int>(rects_.size());
    rects_.push_back(r);
    stamp_.push_back(0);
    for (int by = r.lo.y >> kShift; by <= (r.hi.y >> kShift); ++by) {
      for (int bx = r.lo.x >> kShift; bx <= (r.hi.x >> kShift); ++bx) {
        buckets_[geom::point_key({bx, by})].push_back(id);
      }
    }
  }

  bool overlaps_any(geom::Rect candidate) const {
    ++epoch_;
    for (int by = candidate.lo.y >> kShift; by <= (candidate.hi.y >> kShift); ++by) {
      for (int bx = candidate.lo.x >> kShift; bx <= (candidate.hi.x >> kShift); ++bx) {
        const auto it = buckets_.find(geom::point_key({bx, by}));
        if (it == buckets_.end()) continue;
        for (const int id : it->second) {
          if (stamp_[id] == epoch_) continue;
          stamp_[id] = epoch_;
          if (candidate.overlaps(rects_[id])) return true;
        }
      }
    }
    return false;
  }

 private:
  static constexpr int kShift = 5;  // 32-track buckets

  std::vector<geom::Rect> rects_;
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, std::vector<int>> buckets_;
};

}  // namespace

geom::Point nearest_free_position(geom::Point ideal, geom::Point size,
                                  std::span<const geom::Rect> placed, int spacing) {
  constexpr int kMaxRadius = 100000;
  return ring_search(ideal, kMaxRadius, [&](geom::Point pos) {
           const geom::Rect candidate =
               geom::Rect::from_size(pos, size).expanded(spacing);
           for (const geom::Rect& r : placed) {
             if (candidate.overlaps(r)) return false;
           }
           return true;
         })
      .value_or(ideal);
}

std::vector<geom::Point> gravity_place_reference(std::span<const GravityItem> items,
                                                 int spacing) {
  const int n = static_cast<int>(items.size());
  std::vector<geom::Point> pos(n);
  std::vector<bool> done(n, false);
  std::vector<geom::Rect> placed_rects;
  int placed_count = 0;

  auto commit = [&](int i, geom::Point p) {
    pos[i] = p;
    done[i] = true;
    placed_rects.push_back(geom::Rect::from_size(p, items[i].size));
    ++placed_count;
  };

  // Preplaced items first (incremental placement keeps them untouched).
  for (int i = 0; i < n; ++i) {
    if (items[i].fixed_pos) commit(i, *items[i].fixed_pos);
  }
  // Otherwise the heaviest item anchors the arrangement at the origin.
  if (placed_count == 0 && n > 0) {
    int first = 0;
    for (int i = 1; i < n; ++i) {
      if (items[i].weight > items[first].weight) first = i;
    }
    commit(first, {0, 0});
  }

  // Net ids present on placed items (for the shared-net tests).
  auto placed_nets = [&]() {
    std::unordered_set<NetId> nets;
    for (int i = 0; i < n; ++i) {
      if (!done[i]) continue;
      for (const auto& [net, p] : items[i].terms) nets.insert(net);
    }
    return nets;
  };

  while (placed_count < n) {
    const auto nets = placed_nets();
    // SELECT_NEXT_*: the unplaced item with the most terminals on nets
    // shared with the placed structure.
    int next = -1;
    int next_conn = -1;
    for (int i = 0; i < n; ++i) {
      if (done[i]) continue;
      int conn = 0;
      for (const auto& [net, p] : items[i].terms) conn += nets.contains(net) ? 1 : 0;
      if (conn > next_conn) {
        next = i;
        next_conn = conn;
      }
    }

    geom::Point ideal;
    if (next_conn > 0) {
      // Shared nets between `next` and the placed structure.
      std::unordered_set<NetId> shared;
      for (const auto& [net, p] : items[next].terms) {
        if (nets.contains(net)) shared.insert(net);
      }
      // g0: gravity of this item's terminals on shared nets (item-relative).
      std::int64_t sx = 0, sy = 0, cnt = 0;
      for (const auto& [net, p] : items[next].terms) {
        if (shared.contains(net)) {
          sx += p.x;
          sy += p.y;
          ++cnt;
        }
      }
      const geom::Point g0{static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
      // g1: gravity of the placed terminals on those nets (absolute).
      sx = sy = cnt = 0;
      for (int i = 0; i < n; ++i) {
        if (!done[i]) continue;
        for (const auto& [net, p] : items[i].terms) {
          if (shared.contains(net)) {
            sx += pos[i].x + p.x;
            sy += pos[i].y + p.y;
            ++cnt;
          }
        }
      }
      const geom::Point g1{static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
      ideal = g1 - g0;
    } else {
      // No electrical pull: line up right of everything placed so far.
      geom::Rect hull;
      for (const geom::Rect& r : placed_rects) hull = hull.hull(r);
      ideal = {hull.hi.x + spacing + 1, hull.lo.y};
    }
    commit(next, nearest_free_position(ideal, items[next].size, placed_rects, spacing));
  }
  return pos;
}

std::vector<geom::Point> gravity_place(std::span<const GravityItem> items,
                                       int spacing) {
  // Incremental form of gravity_place_reference (above) — the reference
  // rebuilds the placed-net set, rescans every item and recomputes every
  // gravity sum per placement, which is quadratic and dominates large
  // placements.  This engine maintains the same quantities incrementally:
  //   * conn[i]     — terminals of i on placed nets; updated when a net
  //     first appears on a placed item, selected via a lazy max-heap
  //     (conn desc, index asc — the reference scan's strict-improvement
  //     order).  conn only grows, and every change pushes a fresh entry,
  //     so a verified heap top is the true maximum.
  //   * per-net running (sum, count) of placed terminals — g1 is a sum of
  //     integer terms, so accumulation order cannot change it.
  //   * the placed-rect hull, and a bucket index for the feasibility test
  //     of the ring search (identical booleans, identical positions).
  // Every selection, every ideal point and every final position therefore
  // matches the reference byte for byte.
  const int n = static_cast<int>(items.size());
  std::vector<geom::Point> pos(n);
  std::vector<bool> done(n, false);
  int placed_count = 0;

  RectIndex index;
  geom::Rect hull;

  // Per-net accumulators over the *placed* items (NetIds may be sparse
  // and come from any network — hash-keyed).
  struct NetAcc {
    std::int64_t sx = 0, sy = 0, cnt = 0;
  };
  std::unordered_map<NetId, NetAcc> net_acc;

  std::vector<int> conn(n, 0);
  struct Entry {
    int conn;
    int i;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.conn != b.conn) return a.conn < b.conn;
      return a.i > b.i;
    }
  };
  std::vector<Entry> heap;

  // Terminal counts per (unplaced item, net) — how much conn[i] grows when
  // `net` first lands on a placed item.
  std::unordered_map<NetId, std::vector<std::pair<int, int>>> net_items;
  for (int i = 0; i < n; ++i) {
    std::unordered_map<NetId, int> counts;
    for (const auto& [net, p] : items[i].terms) ++counts[net];
    for (const auto& [net, c] : counts) net_items[net].push_back({i, c});
  }

  auto commit = [&](int i, geom::Point p) {
    pos[i] = p;
    done[i] = true;
    ++placed_count;
    const geom::Rect r = geom::Rect::from_size(p, items[i].size);
    index.insert(r);
    hull = hull.hull(r);
    for (const auto& [net, tp] : items[i].terms) {
      NetAcc& acc = net_acc[net];
      if (acc.cnt == 0) {
        // This net just became placed: every unplaced item holding it
        // gains its terminal count — push their fresh keys.
        for (const auto& [j, c] : net_items[net]) {
          if (done[j]) continue;
          conn[j] += c;
          heap.push_back({conn[j], j});
          std::push_heap(heap.begin(), heap.end(), Less{});
        }
      }
      acc.sx += p.x + tp.x;
      acc.sy += p.y + tp.y;
      ++acc.cnt;
    }
  };

  for (int i = 0; i < n; ++i) {
    if (items[i].fixed_pos) commit(i, *items[i].fixed_pos);
  }
  if (placed_count == 0 && n > 0) {
    int first = 0;
    for (int i = 1; i < n; ++i) {
      if (items[i].weight > items[first].weight) first = i;
    }
    commit(first, {0, 0});
  }
  for (int i = 0; i < n; ++i) {
    if (!done[i]) {
      heap.push_back({conn[i], i});
      std::push_heap(heap.begin(), heap.end(), Less{});
    }
  }

  while (placed_count < n) {
    int next = -1;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), Less{});
      const Entry e = heap.back();
      heap.pop_back();
      if (done[e.i] || e.conn != conn[e.i]) continue;  // stale: fresher entry exists
      next = e.i;
      break;
    }

    geom::Point ideal;
    if (next >= 0 && conn[next] > 0) {
      std::int64_t sx = 0, sy = 0, cnt = 0;       // g0 terms
      std::int64_t gx = 0, gy = 0, gcnt = 0;      // g1 terms
      std::unordered_set<NetId> shared_seen;      // dedup: one g1 term per net
      for (const auto& [net, p] : items[next].terms) {
        const auto it = net_acc.find(net);
        if (it == net_acc.end() || it->second.cnt == 0) continue;
        sx += p.x;
        sy += p.y;
        ++cnt;
        if (shared_seen.insert(net).second) {
          gx += it->second.sx;
          gy += it->second.sy;
          gcnt += it->second.cnt;
        }
      }
      const geom::Point g0{static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
      const geom::Point g1{static_cast<int>(gx / gcnt), static_cast<int>(gy / gcnt)};
      ideal = g1 - g0;
    } else {
      ideal = {hull.hi.x + spacing + 1, hull.lo.y};
    }
    if (next < 0) break;  // unreachable: heap always holds every unplaced item

    const std::optional<geom::Point> found =
        ring_search(ideal, 100000, [&](geom::Point p) {
          return !index.overlaps_any(
              geom::Rect::from_size(p, items[next].size).expanded(spacing));
        });
    commit(next, found.value_or(ideal));
  }
  return pos;
}

}  // namespace na
