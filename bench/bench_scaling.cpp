// Scaling study — Table 6.1 extended beyond the paper's three sizes:
// generation cost as the network grows, on the parameterised bit-sliced
// datapath (3n+1 modules).  The paper's complexity remarks to check:
// "The complexity of placing the modules, strings and partitions is
// strongly related to the number of modules in the network" (4.6.8) and
// "The complexity of the [routing] algorithm is strongly related to the
// number of bends in the constructed path" (5.8) — i.e. both grow
// smoothly, routing dominating.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "gen/datapath.hpp"
#include "place/placer.hpp"

namespace {

using namespace na;
using namespace na::bench;

GeneratorOptions scaling_options() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 6;
  opt.placer.max_box_size = 4;
  opt.placer.max_connections = 12;
  opt.router.margin = 8;
  opt.router.order_criterion = 2;
  return opt;
}

void BM_Datapath_Place(benchmark::State& state) {
  const Network net = gen::datapath_network({static_cast<int>(state.range(0))});
  const GeneratorOptions opt = scaling_options();
  for (auto _ : state) {
    Diagram dia(net);
    place(dia, opt.placer);
    benchmark::DoNotOptimize(dia.placement_bounds());
  }
  state.counters["modules"] = net.module_count();
}

void BM_Datapath_Route(benchmark::State& state) {
  const Network net = gen::datapath_network({static_cast<int>(state.range(0))});
  const GeneratorOptions opt = scaling_options();
  Diagram placed(net);
  place(placed, opt.placer);
  int unrouted = 0;
  for (auto _ : state) {
    Diagram dia = placed;
    unrouted = route_all(dia, opt.router).nets_failed;
  }
  state.counters["nets"] = net.net_count();
  state.counters["unrouted"] = unrouted;
}

BENCHMARK(BM_Datapath_Place)->DenseRange(2, 14, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Datapath_Route)->DenseRange(2, 14, 4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;
  std::printf("\n=== scaling — generation cost vs network size (datapath family) ===\n");
  std::printf("%6s %8s %6s %9s %6s %6s %9s %9s\n", "bits", "modules", "nets",
              "unrouted", "bends", "cross", "place-ms", "route-ms");
  for (int bits : {2, 4, 8, 12, 16}) {
    const Network net = gen::datapath_network({bits});
    GeneratorResult r;
    Diagram dia(net);
    const std::vector<obs::SpanStats> spans =
        traced([&] { r = generate(dia, scaling_options()); });
    require_valid(dia, "datapath");
    std::printf("%6d %8d %6d %9d %6d %6d %9.2f %9.1f\n", bits, r.stats.modules,
                r.stats.nets, r.stats.unrouted, r.stats.bends, r.stats.crossings,
                obs::span_total_ms(spans, "place"),
                obs::span_total_ms(spans, "route"));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
