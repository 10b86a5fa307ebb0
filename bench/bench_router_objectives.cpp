// Section 5.4 / Appendix F ablation — the router's objective ordering:
//
//   default: minimum bends, then minimum crossovers, then minimum length;
//   -s     : minimum bends, then minimum *length*, then crossovers.
//
// The bench routes the same placements under both orderings plus the net
// ordering criteria of section 7 ("it is probably better to construct a
// certain criterion for selecting the next net to be routed"), reporting
// the bends/crossings/length trade-off.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "place/placer.hpp"
#include "schematic/metrics.hpp"

namespace {

using namespace na;
using namespace na::bench;

std::vector<PlacedWorkload>& workloads() {
  static std::vector<PlacedWorkload> all = [] {
    std::vector<PlacedWorkload> w;
    auto add = [&w](std::string name, Network net) -> PlacedWorkload& {
      return add_workload(w, std::move(name), std::move(net));
    };
    place(*add("controller", gen::controller_network()).placed,
          fig63_options().placer);
    gen::life_hand_placement(*add("life-hand", gen::life_network()).placed);
    for (unsigned seed : {21u, 22u}) {
      gen::RandomNetOptions gopt;
      gopt.modules = 14;
      gopt.extra_nets = 10;
      gopt.seed = seed;
      auto& r = add("random-" + std::to_string(seed), gen::random_network(gopt));
      PlacerOptions popt;
      popt.max_part_size = 4;
      popt.max_box_size = 3;
      place(*r.placed, popt);
    }
    return w;
  }();
  return all;
}

DiagramStats route_with(const PlacedWorkload& w, CostOrder order, int criterion) {
  Diagram dia = *w.placed;
  RouterOptions opt;
  opt.order = order;
  opt.order_criterion = criterion;
  opt.margin = 12;
  route_all(dia, opt);
  require_valid(dia, w.name.c_str());
  return compute_stats(dia);
}

void BM_Objective(benchmark::State& state) {
  const CostOrder order = state.range(0) == 0 ? CostOrder::BendsCrossingsLength
                                              : CostOrder::BendsLengthCrossings;
  for (auto _ : state) {
    for (const PlacedWorkload& w : workloads()) {
      benchmark::DoNotOptimize(route_with(w, order, 0).bends);
    }
  }
  state.SetLabel(state.range(0) == 0 ? "bends,cross,len" : "bends,len,cross (-s)");
}

BENCHMARK(BM_Objective)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->MinTime(1.0);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  std::printf("\n=== section 5.4 — objective ordering (crossings vs length) ===\n");
  std::printf("paper: default minimises crossings before length; -s swaps them\n");
  std::printf("%-14s | %21s | %21s\n", "", "default (b,c,l)", "-s (b,l,c)");
  std::printf("%-14s | %6s %6s %7s | %6s %6s %7s\n", "workload", "bends", "cross",
              "length", "bends", "cross", "length");
  for (const PlacedWorkload& w : workloads()) {
    const DiagramStats d = route_with(w, CostOrder::BendsCrossingsLength, 0);
    const DiagramStats s = route_with(w, CostOrder::BendsLengthCrossings, 0);
    std::printf("%-14s | %6d %6d %7d | %6d %6d %7d\n", w.name.c_str(), d.bends,
                d.crossings, d.wire_length, s.bends, s.crossings, s.wire_length);
  }

  std::printf("\n--- section 7 — net ordering criteria (unrouted / bends) ---\n");
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "workload", "as-given",
              "short-1st", "long-1st", "few-terms", "many-terms");
  for (const PlacedWorkload& w : workloads()) {
    std::printf("%-14s", w.name.c_str());
    for (int crit = 0; crit < 5; ++crit) {
      const DiagramStats st = route_with(w, CostOrder::BendsCrossingsLength, crit);
      std::printf("   %3d/%-4d", st.unrouted, st.bends);
    }
    std::printf("\n");
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
