// Figure 6.1 — string placement: "a typical example of the placement of
// the modules in a string.  The diagram is composed out of 1 partition and
// 1 box.  Note that if the level assignment is fixed, the number of bends
// is minimal."
//
// The bench reproduces the figure's structure (single partition, single
// box, minimal chain-net bends) and sweeps the chain length to show the
// cost scaling of the generator on string networks.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "place/placer.hpp"

namespace {

using namespace na;
using namespace na::bench;

void BM_Chain_Generate(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const Network net = gen::chain_network({length, false, true});
  GeneratorOptions opt;
  opt.placer.max_part_size = length + 1;
  opt.placer.max_box_size = length + 1;
  int bends = 0;
  int unrouted = 0;
  for (auto _ : state) {
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, opt, &result);
    bends = result.stats.bends;
    unrouted = result.route.nets_failed;
    benchmark::DoNotOptimize(dia.routed_count());
  }
  state.counters["bends"] = bends;
  state.counters["unrouted"] = unrouted;
}

BENCHMARK(BM_Chain_Generate)->DenseRange(2, 12, 2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  // --- structural reproduction of figure 6.1 --------------------------------
  const Network& net = chain_net();
  GeneratorOptions opt = fig61_options();
  GeneratorResult result;
  const Diagram dia = generate_diagram(net, opt, &result);
  require_valid(dia, "figure 6.1");

  print_header("figure 6.1 — one string",
               "1 partition, 1 box; chain nets at minimum bends; 6/6 routed");
  print_row("chain -p 7 -b 7", result.stats);
  std::printf("partitions=%zu boxes=%zu modules-in-box=%zu\n",
              result.placement.partitions.size(), result.placement.boxes[0].size(),
              result.placement.boxes[0][0].size());
  int chain_bends = 0;
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (net.net(n).name.starts_with("chain")) {
      chain_bends += dia.route(n).bend_count();
    }
  }
  std::printf("bends on the 5 chain nets: %d (lemma: minimal for the fixed "
              "level assignment)\n",
              chain_bends);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
