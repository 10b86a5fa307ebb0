// Table 6.1 — "Timing Figures": placement and routing CPU time for every
// figure of the paper's results chapter.
//
//   paper (HP9000s500, 1989):
//     fig   modules  nets   placement  routing
//     6.1       6      6       0:03      0:03
//     6.2      16     24       0:06      0:10
//     6.3      16     24       0:06      0:11
//     6.4      16     24       0:04      0:09
//     6.5      16     24        -        0:12
//     6.6      27    222        -        1:32   (hand placement)
//     6.7      27    222       0:27     11:36   (automatic placement)
//
// Absolute numbers are hardware-bound; the shape to reproduce is
//   * placement is fast relative to routing on the dense workloads,
//   * the automatically placed LIFE (6.7) routes several times slower than
//     the hand-placed one (6.6) — "if the placement is bad then the
//     routing becomes slower".
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace na;
using namespace na::bench;

void placement_bench(benchmark::State& state, const Network& net,
                     const GeneratorOptions& opt) {
  for (auto _ : state) {
    Diagram dia(net);
    place(dia, opt.placer);
    benchmark::DoNotOptimize(dia.placement_bounds());
  }
}

void routing_bench(benchmark::State& state, const Network& net,
                   const GeneratorOptions& opt, bool hand_placed = false) {
  Diagram placed(net);
  if (hand_placed) {
    gen::life_hand_placement(placed);
  } else {
    place(placed, opt.placer);
  }
  int unrouted = 0;
  for (auto _ : state) {
    Diagram dia = placed;
    const RouteReport r = route_all(dia, opt.router);
    unrouted = r.nets_failed;
    benchmark::DoNotOptimize(dia.routed_count());
  }
  state.counters["unrouted"] = unrouted;
}

void BM_Fig61_Place(benchmark::State& s) { placement_bench(s, chain_net(), fig61_options()); }
void BM_Fig61_Route(benchmark::State& s) { routing_bench(s, chain_net(), fig61_options()); }
void BM_Fig62_Place(benchmark::State& s) { placement_bench(s, ctrl_net(), fig62_options()); }
void BM_Fig62_Route(benchmark::State& s) { routing_bench(s, ctrl_net(), fig62_options()); }
void BM_Fig63_Place(benchmark::State& s) { placement_bench(s, ctrl_net(), fig63_options()); }
void BM_Fig63_Route(benchmark::State& s) { routing_bench(s, ctrl_net(), fig63_options()); }
void BM_Fig64_Place(benchmark::State& s) { placement_bench(s, ctrl_net(), fig64_options()); }
void BM_Fig64_Route(benchmark::State& s) { routing_bench(s, ctrl_net(), fig64_options()); }

// Figure 6.5: the 6.2 placement with one module moved by hand — placement
// is reused (no placement time in the paper's table either), only routing.
void BM_Fig65_Route(benchmark::State& state) {
  const Network& net = ctrl_net();
  const GeneratorOptions opt = fig62_options();
  Diagram placed(net);
  place(placed, opt.placer);
  const ModuleId ctrl = *net.module_by_name("ctrl");
  const geom::Rect b = placed.placement_bounds();
  placed.place_module(ctrl, {b.lo.x - 16, b.hi.y + 8});
  int unrouted = 0;
  for (auto _ : state) {
    Diagram dia = placed;
    unrouted = route_all(dia, opt.router).nets_failed;
  }
  state.counters["unrouted"] = unrouted;
}

void BM_Fig66_Route(benchmark::State& s) {
  routing_bench(s, life_net(), life_router_options(), /*hand_placed=*/true);
}
void BM_Fig67_Place(benchmark::State& s) { placement_bench(s, life_net(), fig67_options()); }
void BM_Fig67_Route(benchmark::State& s) { routing_bench(s, life_net(), fig67_options()); }

BENCHMARK(BM_Fig61_Place)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig61_Route)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig62_Place)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig62_Route)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig63_Place)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig63_Route)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig64_Place)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig64_Route)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig65_Route)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig66_Route)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_Fig67_Place)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig67_Route)->Unit(benchmark::kMillisecond)->MinTime(2.0);

}  // namespace

int main(int argc, char** argv) {
  std::printf("Table 6.1 reproduction — timing figures per figure/phase.\n"
              "Paper shape: routing dominates placement on dense inputs;\n"
              "fig 6.7 (auto-placed LIFE) routes several times slower than\n"
              "fig 6.6 (hand-placed LIFE).\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
