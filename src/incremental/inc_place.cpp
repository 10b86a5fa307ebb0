#include "incremental/inc_place.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "geom/point_table.hpp"
#include "geom/polyline.hpp"
#include "geom/rect_index.hpp"
#include "place/gravity.hpp"
#include "place/partition.hpp"
#include "place/placer.hpp"
#include "place/terminal_place.hpp"

namespace na {
namespace {

/// Gravity centre of a dirty partition's nets over the endpoints whose
/// positions are already known — frozen module terminals (placed in `dia`)
/// and system terminals surviving from the old diagram.  This is the
/// partition-level GRAVITY_PLACED_BOXES sum of section 4.6.6, taken over
/// the preplaced part instead of over previously placed partitions, so an
/// *added* module is pulled toward the modules it talks to (readability
/// rule 2) instead of toward whatever edge of the frozen hull is nearest.
std::optional<geom::Point> net_gravity_center(
    const Diagram& dia, const Diagram& old_dia, const NetlistDiff& diff,
    const std::vector<ModuleId>& partition) {
  const Network& net = dia.network();
  std::unordered_set<ModuleId> members(partition.begin(), partition.end());
  std::unordered_set<NetId> nets;
  for (ModuleId m : partition) {
    for (TermId t : net.module(m).terms) {
      if (net.term(t).net != kNone) nets.insert(net.term(t).net);
    }
  }
  std::int64_t sx = 0, sy = 0, cnt = 0;
  for (NetId n : nets) {
    for (TermId t : net.net(n).terms) {
      const Terminal& term = net.term(t);
      geom::Point p;
      if (term.is_system()) {
        const TermId ot = diff.term_to_old[t];
        if (ot == kNone || !old_dia.term_placed(ot)) continue;
        p = old_dia.term_pos(ot);
      } else {
        if (members.contains(term.module) || !dia.term_placed(t)) continue;
        p = dia.term_pos(t);
      }
      sx += p.x;
      sy += p.y;
      ++cnt;
    }
  }
  if (cnt == 0) return std::nullopt;
  return geom::Point{static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
}

/// Grid points occupied by the cached diagram's routed nets — the "is this
/// vacancy really vacant" oracle for the gravity-seeded insertion below.
using RoutedCells = geom::PointTable<char>;  // presence only: records unused

RoutedCells routed_cells(const Diagram& dia) {
  size_t bound = 0;
  for (const NetRoute& r : dia.routes()) bound += r.cell_bound();
  RoutedCells cells(bound);
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      geom::for_each_cell(pl, [&](geom::Point p) { cells.insert(p); });
    }
  }
  return cells;
}

/// Routed track cells under `r` — each one a net the insertion would
/// displace (scrub + re-route) if a symbol landed here.
int covered(const RoutedCells& cells, geom::Rect r) {
  int hits = 0;
  for (int x = r.lo.x; x <= r.hi.x; ++x) {
    for (int y = r.lo.y; y <= r.hi.y; ++y) {
      hits += cells.find({x, y}) != cells.npos ? 1 : 0;
    }
  }
  return hits;
}

}  // namespace

IncPlaceResult incremental_place(Diagram& dia, const Diagram& old_dia,
                                 const NetlistDiff& diff, const DirtyInfo& dirty,
                                 const PlacementInfo& old_info,
                                 const PlacerOptions& opt) {
  const Network& net = dia.network();
  IncPlaceResult result;

  // ----- freeze clean modules at their cached positions ----------------------
  std::vector<ModuleId> frozen;
  std::vector<bool> dirty_mask(net.module_count(), false);
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    const ModuleId om = diff.module_to_old[m];
    if (!dirty.module_dirty[m] && om != kNone && old_dia.module_placed(om)) {
      const PlacedModule& pm = old_dia.placed(om);
      dia.place_module(m, pm.pos, pm.rot);
      frozen.push_back(m);
    } else {
      dirty_mask[m] = true;
    }
  }
  result.modules_frozen = static_cast<int>(frozen.size());

  // ----- re-place the dirty set through the section-4.6 pipeline -------------
  std::vector<std::vector<ModuleId>> new_partitions;
  std::vector<std::vector<Box>> new_boxes;
  if (result.modules_frozen < net.module_count()) {
    const PartitionLimits limits{opt.max_part_size, opt.max_connections};
    new_partitions = partition_network(net, limits, dirty_mask);

    std::vector<PartitionLayout> layouts;
    std::vector<std::optional<geom::Point>> fixed_pos;
    geom::Rect frozen_hull;
    for (ModuleId m : frozen) frozen_hull = frozen_hull.hull(dia.module_rect(m));
    if (!frozen.empty()) {
      layouts.push_back(detail::pinned_layout(dia, frozen, frozen_hull));
      fixed_pos.push_back(frozen_hull.lo);
    }

    // Old module -> old partition index, for the in-place refresh test.
    const Network& old_net = old_dia.network();
    std::vector<int> old_part_of(old_net.module_count(), -1);
    for (size_t p = 0; p < old_info.partitions.size(); ++p) {
      for (ModuleId om : old_info.partitions[p]) {
        old_part_of[om] = static_cast<int>(p);
      }
    }

    std::vector<geom::Rect> pinned;  // holes already promised to a partition
    std::optional<RoutedCells> old_cells;  // built on first gravity seed
    for (size_t pi = 0; pi < new_partitions.size(); ++pi) {
      const std::vector<ModuleId>& partition = new_partitions[pi];
      // In-place refresh: when the partition's membership and module sizes
      // are unchanged (the edit moved a terminal pin or rewired a net), the
      // old arrangement is still the right one — re-running the box layout
      // would spread the group into space it does not have and tear up
      // every net it touches.  Keep the old geometry verbatim.
      int old_part = -1;
      bool unchanged = !partition.empty();
      for (ModuleId m : partition) {
        const ModuleId om = diff.module_to_old[m];
        if (om == kNone || !old_dia.module_placed(om) ||
            old_net.module(om).size != net.module(m).size ||
            old_part_of[om] == -1 ||
            (old_part != -1 && old_part_of[om] != old_part)) {
          unchanged = false;
          break;
        }
        old_part = old_part_of[om];
      }
      if (unchanged &&
          old_info.partitions[old_part].size() == partition.size()) {
        geom::Rect hull;
        for (ModuleId m : partition) {
          hull = hull.hull(old_dia.module_rect(diff.module_to_old[m]));
        }
        bool clear = true;  // old rects cannot hit frozen ones, only holes
        for (const geom::Rect& r : pinned) {
          if (hull.overlaps(r)) clear = false;
        }
        if (clear) {
          layouts.push_back(
              detail::pinned_layout(old_dia, partition, hull, diff.module_to_old));
          fixed_pos.push_back(hull.lo);
          pinned.push_back(hull);
          std::vector<Box> boxes;
          for (const Box& ob : old_info.boxes[old_part]) {
            Box nb;
            for (ModuleId om : ob) nb.push_back(diff.module_to_new[om]);
            boxes.push_back(std::move(nb));
          }
          new_boxes.push_back(std::move(boxes));
          continue;
        }
      }

      detail::PartitionResult built =
          detail::build_partition(net, partition, opt, static_cast<int>(pi));
      const geom::Point size = built.layout.size;

      // Hole pinning: the hull the partition's modules vacated in the old
      // diagram.  Pin the new layout there when it fits and collides with
      // nothing frozen and no other pinned hole.
      std::optional<geom::Point> pin;
      geom::Rect hole;
      bool all_existed = !partition.empty();
      for (ModuleId m : partition) {
        const ModuleId om = diff.module_to_old[m];
        if (om == kNone || !old_dia.module_placed(om)) {
          all_existed = false;
          break;
        }
        hole = hole.hull(old_dia.module_rect(om));
      }
      if (all_existed && size.x <= hole.width() && size.y <= hole.height()) {
        const geom::Rect target = geom::Rect::from_size(hole.lo, size);
        bool clear = true;
        for (ModuleId m : frozen) {
          if (target.expanded(opt.partition_spacing)
                  .overlaps(dia.module_rect(m))) {
            clear = false;
            break;
          }
        }
        for (const geom::Rect& r : pinned) {
          if (target.overlaps(r)) clear = false;
        }
        if (clear) {
          pin = hole.lo;
          pinned.push_back(target);
        }
      }

      // Gravity seeding: a partition without a vacated hole (added modules,
      // or a refreshed group that outgrew its hole) is pulled toward the
      // gravity centre of its nets' already-placed endpoints and dropped on
      // the best nearby vacancy.  The ring search tests the *individual*
      // frozen module rectangles, so holes inside the frozen hull are
      // usable and the hull expands locally when they are not, and its
      // penalty charges each routed cell the footprint would cover: a spot
      // a few tracks further that tears up no routing beats one on a
      // channel.  Only when no legal cell exists within the bounded radius
      // does the partition fall through to place_partitions, which treats
      // the frozen part as one solid rectangle and lines it up at the edge.
      if (!pin && !frozen.empty()) {
        if (const auto center =
                net_gravity_center(dia, old_dia, diff, partition)) {
          const geom::Point ideal = *center - geom::Point{size.x / 2, size.y / 2};
          const int spacing = std::max(opt.module_spacing, 1);
          const int max_radius = std::max(frozen_hull.width(), frozen_hull.height()) / 2 +
                                 std::max(size.x, size.y) + spacing + 1;
          std::vector<geom::Rect> obstacles;
          obstacles.reserve(frozen.size() + pinned.size());
          for (ModuleId m : frozen) obstacles.push_back(dia.module_rect(m));
          obstacles.insert(obstacles.end(), pinned.begin(), pinned.end());
          if (!old_cells) old_cells.emplace(routed_cells(old_dia));
          // One displaced routed cell weighs like four extra tracks of
          // distance: proximity still dominates, but dense channels repel
          // the insertion.
          constexpr std::int64_t kCellPenalty = 16;
          const auto spot = ring_search(
              ideal, max_radius,
              [&](geom::Point pos) {
                const geom::Rect candidate =
                    geom::Rect::from_size(pos, size).expanded(spacing);
                for (const geom::Rect& r : obstacles) {
                  if (candidate.overlaps(r)) return false;
                }
                return true;
              },
              [&](geom::Point pos) {
                return kCellPenalty *
                       covered(*old_cells, geom::Rect::from_size(pos, size));
              });
          if (spot) {
            pin = *spot;
            pinned.push_back(geom::Rect::from_size(*spot, size));
          }
        }
      }
      layouts.push_back(std::move(built.layout));
      fixed_pos.push_back(pin);
      new_boxes.push_back(std::move(built.boxes));
    }

    const FullLayout full =
        place_partitions(net, std::move(layouts), opt.partition_spacing, fixed_pos);
    result.modules_replaced = detail::commit_layout(dia, full);
  }

  // ----- system terminals: keep survivors, ring-place the rest ---------------
  for (TermId st : net.system_terms()) {
    const TermId ot = diff.term_to_old[st];
    if (ot == kNone || !old_dia.system_term_placed(ot)) continue;
    const geom::Point pos = old_dia.term_pos(ot);
    bool clear = true;  // a re-placed partition may have grown over the spot
    for (ModuleId m = 0; m < net.module_count(); ++m) {
      if (dia.module_placed(m) && dia.module_rect(m).contains(pos)) {
        clear = false;
        break;
      }
    }
    if (clear) dia.place_system_term(st, pos);
  }
  place_system_terminals(dia);

  // ----- feasibility: frozen placement must stay overlap-free ----------------
  // Every module placed and no two overlapping — the validator's index and
  // overlap predicate, at O(n) per edit instead of a scan over all pairs.
  std::vector<geom::Rect> rects;
  rects.reserve(net.module_count());
  for (ModuleId m = 0; m < net.module_count() && result.feasible; ++m) {
    result.feasible = dia.module_placed(m);
    if (result.feasible) rects.push_back(dia.module_rect(m));
  }
  if (result.feasible) {
    const geom::RectIndex index(std::move(rects));
    std::vector<int> hits;
    for (int i = 0; i < index.size() && result.feasible; ++i) {
      index.overlapping_after(i, hits);
      result.feasible = hits.empty();
    }
  }

  // ----- merged structure: carried-over clean partitions + the new ones ------
  for (size_t p = 0; p < old_info.partitions.size(); ++p) {
    if (p < dirty.partition_dirty.size() && dirty.partition_dirty[p]) continue;
    std::vector<ModuleId> mapped;
    for (ModuleId om : old_info.partitions[p]) {
      const ModuleId nm = diff.module_to_new[om];
      if (nm != kNone) mapped.push_back(nm);
    }
    if (mapped.empty()) continue;
    std::vector<Box> boxes;
    if (p < old_info.boxes.size()) {
      for (const Box& ob : old_info.boxes[p]) {
        Box nb;
        for (ModuleId om : ob) {
          const ModuleId nm = diff.module_to_new[om];
          if (nm != kNone) nb.push_back(nm);
        }
        if (!nb.empty()) boxes.push_back(std::move(nb));
      }
    }
    result.info.partitions.push_back(std::move(mapped));
    result.info.boxes.push_back(std::move(boxes));
  }
  for (size_t p = 0; p < new_partitions.size(); ++p) {
    result.info.partitions.push_back(std::move(new_partitions[p]));
    result.info.boxes.push_back(std::move(new_boxes[p]));
  }
  return result;
}

}  // namespace na
