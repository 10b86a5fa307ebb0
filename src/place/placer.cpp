#include "place/placer.hpp"

#include <thread>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "place/partition.hpp"
#include "place/partition_place.hpp"
#include "place/terminal_place.hpp"

namespace na {
namespace detail {

PartitionLayout pinned_layout(const Diagram& dia, const std::vector<ModuleId>& modules,
                              geom::Rect hull, std::span<const ModuleId> to_dia) {
  PartitionLayout part;
  for (ModuleId m : modules) {
    const ModuleId dm = to_dia.empty() ? m : to_dia[m];
    BoxLayout box;
    box.modules = {m};
    box.rot = {dia.placed(dm).rot};
    box.pos = {{0, 0}};
    box.size = dia.module_size(dm);
    part.boxes.push_back(std::move(box));
    part.box_pos.push_back(dia.placed(dm).pos - hull.lo);
  }
  part.size = {hull.width(), hull.height()};
  return part;
}

PartitionResult build_partition(const Network& net,
                                const std::vector<ModuleId>& partition,
                                const PlacerOptions& opt, int part_idx) {
  PartitionResult out;
  {
    NA_TRACE_SPAN(span, "place.box_form");
    span.arg("partition", part_idx);
    out.boxes = form_boxes(net, partition, opt.max_box_size);
    span.arg("boxes", static_cast<long long>(out.boxes.size()));
  }
  std::vector<BoxLayout> box_layouts;
  box_layouts.reserve(out.boxes.size());
  {
    NA_TRACE_SPAN(span, "place.module_place");
    span.arg("partition", part_idx);
    for (const Box& b : out.boxes) {
      box_layouts.push_back(place_box_modules(net, b, opt.module_spacing));
    }
  }
  {
    NA_TRACE_SPAN(span, "place.box_place");
    span.arg("partition", part_idx);
    out.layout = place_boxes(net, std::move(box_layouts), opt.box_spacing);
  }
  return out;
}

int commit_layout(Diagram& dia, const FullLayout& full) {
  int placed = 0;
  for (size_t p = 0; p < full.partitions.size(); ++p) {
    const PartitionLayout& part = full.partitions[p];
    for (size_t b = 0; b < part.boxes.size(); ++b) {
      const BoxLayout& box = part.boxes[b];
      for (size_t i = 0; i < box.modules.size(); ++i) {
        const ModuleId m = box.modules[i];
        if (dia.module_placed(m)) continue;  // pinned modules stay put
        dia.place_module(m, full.partition_pos[p] + part.box_pos[b] + box.pos[i],
                         box.rot[i]);
        ++placed;
      }
    }
  }
  return placed;
}

}  // namespace detail

PlacementInfo place(Diagram& dia, const PlacerOptions& opt) {
  const Network& net = dia.network();
  PlacementInfo info;

  // Split preplaced from free modules.
  std::vector<ModuleId> fixed_modules;
  std::vector<bool> free_mask(net.module_count(), false);
  int free_count = 0;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (dia.module_placed(m)) {
      fixed_modules.push_back(m);
    } else {
      free_mask[m] = true;
      ++free_count;
    }
  }

  if (net.module_count() == 0) {
    // Degenerate: terminal-only network — spread terminals on a line.
    int y = 0;
    for (TermId st : net.system_terms()) {
      if (!dia.system_term_placed(st)) dia.place_system_term(st, {0, y += 2});
    }
    return info;
  }

  std::vector<PartitionLayout> layouts;
  std::vector<std::optional<geom::Point>> fixed_pos;
  if (!fixed_modules.empty()) {
    geom::Rect hull;
    for (ModuleId m : fixed_modules) hull = hull.hull(dia.module_rect(m));
    layouts.push_back(detail::pinned_layout(dia, fixed_modules, hull));
    fixed_pos.push_back(hull.lo);
    info.partitions.push_back(fixed_modules);
    std::vector<Box> fixed_boxes;
    for (ModuleId m : fixed_modules) fixed_boxes.push_back({m});
    info.boxes.push_back(std::move(fixed_boxes));
  }

  if (free_count > 0) {
    // Pipeline steps 1-4 (see the header comment): each carries a trace
    // span named after the paper's phase so one traced run yields the
    // Table 6.1-style per-phase breakdown.
    std::vector<std::vector<ModuleId>> partitions;
    {
      NA_TRACE_SPAN(span, "place.partition");
      const PartitionLimits limits{opt.max_part_size, opt.max_connections};
      partitions = partition_network(net, limits, free_mask);
      span.arg("partitions", static_cast<long long>(partitions.size()));
      span.arg("free_modules", free_count);
    }
    // Steps 2-4 per partition, as independent jobs.  Results land in
    // pre-sized slots and are assembled in partition order below, so the
    // sequential and the pooled path are byte-identical.
    int threads = opt.threads;
    if (threads == 0) {
      threads = std::max(1u, std::thread::hardware_concurrency());
    }
    std::vector<detail::PartitionResult> results(partitions.size());
    if (threads > 1 && partitions.size() > 1) {
      NA_TRACE_SPAN(span, "place.partition_jobs");
      span.arg("threads", threads);
      span.arg("partitions", static_cast<long long>(partitions.size()));
      ThreadPool pool(std::min<int>(threads, static_cast<int>(partitions.size())));
      for (size_t pi = 0; pi < partitions.size(); ++pi) {
        pool.submit([&, pi] {
          results[pi] = detail::build_partition(net, partitions[pi], opt,
                                                static_cast<int>(pi));
        });
      }
      pool.wait_idle();
    } else {
      for (size_t pi = 0; pi < partitions.size(); ++pi) {
        results[pi] =
            detail::build_partition(net, partitions[pi], opt, static_cast<int>(pi));
      }
    }
    for (size_t pi = 0; pi < partitions.size(); ++pi) {
      layouts.push_back(std::move(results[pi].layout));
      fixed_pos.emplace_back(std::nullopt);
      info.boxes.push_back(std::move(results[pi].boxes));
      info.partitions.push_back(std::move(partitions[pi]));
    }
  }

  FullLayout full = [&] {
    NA_TRACE_SCOPE("place.partition_place");
    return place_partitions(net, std::move(layouts), opt.partition_spacing,
                            fixed_pos);
  }();

  detail::commit_layout(dia, full);

  {
    NA_TRACE_SCOPE("place.terminal_place");
    place_system_terminals(dia);
  }
  if (fixed_modules.empty()) dia.normalize();
  return info;
}

}  // namespace na
