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
#include <iostream>
#include <span>

#include "core/figures.hpp"
#include "core/generator.hpp"
#include "gen/life.hpp"
#include "netlist/text_io.hpp"
#include "obs/obs_options.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "schematic/metrics.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"
#include "sim/life_check.hpp"

int main(int argc, char** argv) {
  using namespace na;
  obs::ObsOptions obs;
  std::string out_dir = ".";
  try {
    const std::vector<std::string> positional =
        obs::parse_obs_args({argv + 1, argv + argc}, obs);
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
    if (hand_placed) gen::life_hand_placement(dia);
    const GeneratorOptions opt =
        hand_placed ? life_router_options() : fig67_options();
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

    write_file(out_dir + "/" + file, to_svg(dia));
    std::cout << "wrote " << out_dir << "/" << file << "\n\n";
  };

  try {
    run("figure 6.6: hand placement, automatic routing", "life_hand.svg", true,
        "fig66.");
    run("figure 6.7: fully automatic generation", "life_auto.svg", false,
        "fig67.");
  } catch (const std::exception& e) {
    std::cerr << "life_game: " << e.what() << '\n';
    return 1;
  }

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
