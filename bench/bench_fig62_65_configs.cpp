// Figures 6.2-6.5 — four schematic diagrams of the same 16-module /
// 24-net network under different generator options:
//
//   6.2  -p 1 -b 1   "typical clustering of the modules"
//   6.3  -p 5 -b 1   "distinct partitions containing a clustering
//                     structure ... the comprised modules form a
//                     functional part; the only common nets are the ones
//                     coming from the controller in the center"
//   6.4  -p 7 -b 5   "partitions composed out of strings of modules ...
//                     enforcing left to right signal flow"
//   6.5  6.2 + one module manually moved, rerouted
//
// The bench prints the quality counters of each configuration (the visual
// differences the figures show, quantified) and times the generation.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "place/placer.hpp"
#include "schematic/metrics.hpp"

namespace {

using namespace na;
using namespace na::bench;

void config_bench(benchmark::State& state, const GeneratorOptions& opt) {
  const Network& net = ctrl_net();
  int unrouted = 0;
  for (auto _ : state) {
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, opt, &result);
    unrouted = result.route.nets_failed;
    benchmark::DoNotOptimize(dia.routed_count());
  }
  state.counters["unrouted"] = unrouted;
}

void BM_Fig62(benchmark::State& s) { config_bench(s, fig62_options()); }
void BM_Fig63(benchmark::State& s) { config_bench(s, fig63_options()); }
void BM_Fig64(benchmark::State& s) { config_bench(s, fig64_options()); }

void BM_Fig65_MoveAndReroute(benchmark::State& state) {
  const Network& net = ctrl_net();
  const GeneratorOptions opt = fig62_options();
  Diagram placed(net);
  place(placed, opt.placer);
  const ModuleId ctrl = *net.module_by_name("ctrl");
  const geom::Rect b = placed.placement_bounds();
  placed.place_module(ctrl, {b.lo.x - 16, b.hi.y + 8});
  for (auto _ : state) {
    Diagram dia = placed;
    benchmark::DoNotOptimize(route_all(dia, opt.router).nets_routed);
  }
}

BENCHMARK(BM_Fig62)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig63)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig65_MoveAndReroute)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;
  const Network& net = ctrl_net();

  print_header("figures 6.2-6.5 — option exploration on one network",
               "same network, four diagrams; strings (-b 5) give left-to-right "
               "flow; all ~fully routed");

  struct Cfg {
    const char* name;
    GeneratorOptions opt;
  };
  const Cfg configs[] = {
      {"fig 6.2: -p 1 -b 1", fig62_options()},
      {"fig 6.3: -p 5 -b 1 -c 8", fig63_options()},
      {"fig 6.4: -p 7 -b 5", fig64_options()},
  };
  for (const Cfg& cfg : configs) {
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, cfg.opt, &result);
    require_valid(dia, cfg.name);
    print_row(cfg.name, result.stats);
    std::printf("    partitions=%zu  flow-violations=%d\n",
                result.placement.partitions.size(), result.stats.flow_violations);
  }

  // Figure 6.5: manual adjustment of the 6.2 placement.
  {
    GeneratorOptions opt = fig62_options();
    Diagram dia(net);
    place(dia, opt.placer);
    const ModuleId ctrl = *net.module_by_name("ctrl");
    const geom::Rect b = dia.placement_bounds();
    dia.place_module(ctrl, {b.lo.x - 16, b.hi.y + 8});
    route_all(dia, opt.router);
    require_valid(dia, "fig 6.5");
    print_row("fig 6.5: 6.2 + manual move", compute_stats(dia));
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
