// The paper's Example 3: the Game-of-LIFE network, 27 modules / 222 nets.
//
// Reproduces both figure 6.6 (hand placement + automatic routing) and
// figure 6.7 (fully automatic generation), writes both diagrams as SVG and
// reports the routing statistics the paper quotes ("there are 222 nets and
// only two nets were routed unsuccessfully").
//
//   $ ./life_game [out_dir] [--trace file] [--stats text|json|off]
//
// With --stats json the emission holds both figures' counters and span
// rollups under the fig66./fig67. prefixes — the breakdown behind the
// paper's Table 6.1.
#include <fstream>
#include <iostream>
#include <span>

#include "core/generator.hpp"
#include "core/options.hpp"
#include "gen/life.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "route/net_order.hpp"
#include "schematic/metrics.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"
#include "sim/life_check.hpp"

int main(int argc, char** argv) {
  using namespace na;
  obs::ObsOptions obs;
  GeneratorOptions cli;  // the figures keep their published options
  std::string out_dir = ".";
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    const std::vector<std::string> positional =
        parse_generator_args(args, cli, &obs);
    if (!positional.empty()) out_dir = positional[0];
  } catch (const std::exception& e) {
    std::cerr << "life_game: " << e.what() << '\n';
    return 2;
  }
  obs::obs_begin(obs);
  // The per-figure place and route times are the span rollup of that
  // figure's events, so the recorder runs whether or not a trace or stats
  // were asked for.
  obs::trace_enable();
  obs::MetricsRegistry reg;
  const Network net = gen::life_network();
  std::cout << "LIFE network: " << net.module_count() << " modules, "
            << net.net_count() << " nets\n\n";

  int failures = 0;
  auto run = [&](const char* title, const char* file, bool hand_placed,
                 const char* prefix) {
    Diagram dia(net);
    GeneratorOptions opt;
    if (hand_placed) {
      gen::life_hand_placement(dia);
    } else {
      opt.placer.max_part_size = 3;  // one partition per LIFE cell
      opt.placer.max_box_size = 3;
      opt.placer.module_spacing = 1;
      opt.placer.partition_spacing = 2;
    }
    // A dense diagram needs ring space for the wrap-around nets, and long
    // nets routed first (the ordering criterion section 7 recommends).
    opt.router.margin = 12;
    opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
    const size_t first_event = obs::trace_events().size();
    const GeneratorResult result = generate(dia, opt);
    const std::vector<obs::TraceEventView> events = obs::trace_events();
    const std::vector<obs::SpanStats> spans =
        obs::span_rollup(std::span(events).subspan(first_event));
    std::cout << "=== " << title << " ===\n"
              << "placement: " << obs::span_total_ms(spans, "place") / 1e3
              << " s, routing: " << obs::span_total_ms(spans, "route") / 1e3
              << " s\n"
              << "routed " << result.route.nets_routed << "/"
              << (result.route.nets_routed + result.route.nets_failed)
              << " nets (" << result.route.nets_failed << " unrouted, "
              << result.route.retried_connections << " fixed by the retry pass)\n"
              << result.stats.summary() << "\n";
    const auto problems = validate_diagram(dia);
    for (const auto& p : problems) std::cout << "PROBLEM: " << p << '\n';
    failures += static_cast<int>(problems.size());

    obs::MetricsRegistry one;
    obs::absorb(one, result);
    obs::absorb(one, spans);
    reg.merge_prefixed(one, prefix);

    std::ofstream svg(out_dir + "/" + file);
    write_svg(svg, dia);
    std::cout << "wrote " << out_dir << "/" << file << "\n\n";
  };

  run("figure 6.6: hand placement, automatic routing", "life_hand.svg", true,
      "fig66.");
  run("figure 6.7: fully automatic generation", "life_auto.svg", false,
      "fig67.");

  // The paper's acceptance test: "the schematic diagram has been simulated
  // ... the results were positive."  The validator above proved the drawn
  // nets realise exactly the net-list; simulating the net-list therefore
  // simulates the artwork.
  const auto sim_problems = sim::verify_life(
      net, {true, true, false, false, true, false, false, false, false}, 8);
  for (const auto& p : sim_problems) std::cout << "SIM PROBLEM: " << p << '\n';
  std::cout << (sim_problems.empty()
                    ? "simulation: 8 generations match the reference game of "
                      "LIFE — results positive\n"
                    : "simulation FAILED\n");
  failures += static_cast<int>(sim_problems.size());
  reg.set("life.validation_failures", failures);
  if (!obs::obs_finish(obs, reg)) return 1;
  return failures == 0 ? 0 : 1;
}
