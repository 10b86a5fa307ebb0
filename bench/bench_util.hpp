// Shared helpers for the experiment benches: the paper's workloads with
// their published option settings, a row printer for the
// paper-vs-measured tables each bench emits before the timing runs, and
// the span rollup those tables read their times from.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

/// The paper's three networks, built once and checked against their
/// published sizes.
inline const Network& chain_net() {
  static const Network net = gen::chain_network({});
  require_counts(net, 6, 6, "figure 6.1 chain");
  return net;
}

inline const Network& ctrl_net() {
  static const Network net = gen::controller_network();
  require_counts(net, 16, 24, "figures 6.2-6.5 controller network");
  return net;
}

inline const Network& life_net() {
  static const Network net = gen::life_network();
  require_counts(net, 27, 222, "LIFE network");
  return net;
}

/// A named network with a diagram over it that the bench fills; owning
/// both keeps the diagram's network reference stable.
struct PlacedWorkload {
  std::string name;
  std::unique_ptr<Network> net;
  std::unique_ptr<Diagram> placed;
};

/// Appends a workload for `net` with an empty diagram and returns it.
inline PlacedWorkload& add_workload(std::vector<PlacedWorkload>& all,
                                    std::string name, Network net) {
  auto owned = std::make_unique<Network>(std::move(net));
  auto placed = std::make_unique<Diagram>(*owned);
  all.push_back({std::move(name), std::move(owned), std::move(placed)});
  return all.back();
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

/// Runs `work` with the trace recorder on and returns the span rollup of
/// what it recorded — the benches' one timing source (a bench may open
/// its own span around a phase).  The recorder is reset on both sides, so
/// each call rolls up only its own events.  Under NA_TRACE=OFF the rollup
/// is empty and every time reads 0.
template <typename Work>
std::vector<obs::SpanStats> traced(Work&& work) {
  obs::trace_reset();
  obs::trace_enable();
  work();
  obs::trace_disable();
  std::vector<obs::SpanStats> rollup = obs::span_rollup(obs::trace_events());
  obs::trace_reset();
  return rollup;
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
