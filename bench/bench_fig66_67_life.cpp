// Figures 6.6/6.7 — the LIFE network (27 modules, 222 nets).
//
// Paper:
//   6.6  modules placed by hand, routing added automatically: "there are
//        222 nets and only two nets were routed unsuccessfully"; 1:32 CPU.
//   6.7  completely automatic generation: "the routing of just one net was
//        impossible"; placement 0:27, routing 11:36 — "it is obvious that
//        the placement is the crucial part of the generator.  If the
//        placement is bad then the routing becomes slower."
//
// Reproduced shape: both variants route (essentially) everything; the
// automatic placement yields a denser, slower-to-route diagram with more
// crossings and longer wire than the hand placement.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "place/placer.hpp"
#include "schematic/metrics.hpp"

namespace {

using namespace na;
using namespace na::bench;

void BM_Fig66_HandPlusRoute(benchmark::State& state) {
  Diagram placed(life_net());
  gen::life_hand_placement(placed);
  const GeneratorOptions opt = life_router_options();
  int unrouted = 0;
  for (auto _ : state) {
    Diagram dia = placed;
    unrouted = route_all(dia, opt.router).nets_failed;
  }
  state.counters["unrouted"] = unrouted;
}

void BM_Fig67_FullyAutomatic(benchmark::State& state) {
  const GeneratorOptions opt = fig67_options();
  int unrouted = 0;
  for (auto _ : state) {
    GeneratorResult result;
    const Diagram dia = generate_diagram(life_net(), opt, &result);
    unrouted = result.route.nets_failed;
    benchmark::DoNotOptimize(dia.routed_count());
  }
  state.counters["unrouted"] = unrouted;
}

// The historical behaviour (net-list order, no ordering criterion): the
// configuration whose failure counts the paper actually reports.
void BM_Fig67_HistoricalOrder(benchmark::State& state) {
  GeneratorOptions opt = fig67_options();
  opt.router.order_criterion = 0;
  int unrouted = 0;
  for (auto _ : state) {
    GeneratorResult result;
    const Diagram dia = generate_diagram(life_net(), opt, &result);
    unrouted = result.route.nets_failed;
    benchmark::DoNotOptimize(dia.routed_count());
  }
  state.counters["unrouted"] = unrouted;
}

BENCHMARK(BM_Fig66_HandPlusRoute)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Fig67_FullyAutomatic)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Fig67_HistoricalOrder)->Unit(benchmark::kMillisecond)->MinTime(2.0);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  print_header("figures 6.6/6.7 — the LIFE network",
               "6.6 hand-placed: 2/222 unrouted; 6.7 automatic: 1/222 unrouted, "
               "routing ~7x slower than 6.6");

  {
    Diagram dia(life_net());
    gen::life_hand_placement(dia);
    const GeneratorOptions opt = life_router_options();
    const GeneratorResult r = generate(dia, opt);
    require_valid(dia, "fig 6.6");
    print_row("fig 6.6: hand + route", r.stats);
    std::printf("    retried=%d expansions=%ld\n", r.route.retried_connections,
                r.route.total_expansions);
  }
  {
    GeneratorResult r;
    const Diagram dia = generate_diagram(life_net(), fig67_options(), &r);
    require_valid(dia, "fig 6.7");
    print_row("fig 6.7: fully automatic", r.stats);
  }
  {
    GeneratorOptions opt = fig67_options();
    opt.router.order_criterion = 0;
    GeneratorResult r;
    const Diagram dia = generate_diagram(life_net(), opt, &r);
    require_valid(dia, "fig 6.7 historical order");
    print_row("fig 6.7 (netlist order)", r.stats);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
