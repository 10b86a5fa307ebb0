// Shared helpers for the experiment benches: the paper's workloads with
// their published option settings, and a row printer for the
// paper-vs-measured tables each bench emits before the timing runs.
#pragma once

#include <cstdio>
#include <string>

#include "core/generator.hpp"
#include "obs/metrics.hpp"
#include "gen/chain.hpp"
#include "gen/controller.hpp"
#include "gen/life.hpp"
#include "gen/random_net.hpp"
#include "route/net_order.hpp"
#include "schematic/validate.hpp"

namespace na::bench {

/// The generator settings used for each of the paper's figures.
inline GeneratorOptions fig61_options() {
  GeneratorOptions opt;  // one partition, one string
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 7;
  return opt;
}

inline GeneratorOptions fig62_options() {
  GeneratorOptions opt;  // -p 1 -b 1 (pure clustering)
  opt.placer.max_part_size = 1;
  opt.placer.max_box_size = 1;
  opt.router.margin = 6;
  return opt;
}

inline GeneratorOptions fig63_options() {
  GeneratorOptions opt;  // -p 5 -b 1 (functional partitions, no strings)
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 1;
  opt.placer.max_connections = 8;
  opt.router.margin = 6;
  return opt;
}

inline GeneratorOptions fig64_options() {
  GeneratorOptions opt;  // -p 7 -b 5 (partitions of strings)
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 5;
  opt.router.margin = 6;
  return opt;
}

inline GeneratorOptions life_router_options() {
  GeneratorOptions opt;
  opt.router.margin = 12;
  opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  return opt;
}

inline GeneratorOptions fig67_options() {
  GeneratorOptions opt = life_router_options();  // automatic LIFE placement
  opt.placer.max_part_size = 3;                  // one partition per cell
  opt.placer.max_box_size = 3;
  opt.placer.module_spacing = 1;
  opt.placer.partition_spacing = 2;
  return opt;
}

/// Aborts the bench when a reconstructed workload drifts from the paper's
/// published size — the tables are meaningless otherwise.
inline void require_counts(const Network& net, int modules, int nets,
                           const char* what) {
  if (net.module_count() != modules || net.net_count() != nets) {
    std::fprintf(stderr, "FATAL: %s has %d modules / %d nets, paper says %d / %d\n",
                 what, net.module_count(), net.net_count(), modules, nets);
    std::abort();
  }
}

/// Aborts when a diagram violates the drawing rules — benches must never
/// time invalid output.
inline void require_valid(const Diagram& dia, const char* what) {
  const auto problems = validate_diagram(dia);
  if (!problems.empty()) {
    std::fprintf(stderr, "FATAL: %s produced an invalid diagram: %s\n", what,
                 problems.front().c_str());
    std::abort();
  }
}

/// The one table every bench's paper-vs-measured block renders through
/// (obs::MetricsTable does the layout; the per-bench printf format strings
/// are gone).  Rows accumulate across print_header calls, which is fine:
/// each row is printed the moment it is added.
inline obs::MetricsTable& bench_table() {
  static obs::MetricsTable table(
      "configuration", {"modules", "nets", "unrouted", "bends", "cross",
                        "length", "width", "height"});
  return table;
}

inline void print_header(const char* title, const char* paper_claim) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::fputs(bench_table().header_text().c_str(), stdout);
}

inline void print_row(const std::string& name, const DiagramStats& s) {
  obs::MetricsTable& t = bench_table();
  t.add_row(name, {s.modules, s.nets, s.unrouted, s.bends, s.crossings,
                   s.wire_length, s.width, s.height});
  std::fputs(t.row_text(t.rows() - 1).c_str(), stdout);
}

}  // namespace na::bench
