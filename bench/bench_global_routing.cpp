// Section 5.2.1 — global routing analysis: the stage the paper skipped.
//
// The bench runs the gcell global router over the experiment placements
// and sets its congestion forecast (overflow, max boundary demand) against
// what the detailed line-expansion router actually experiences (unrouted
// nets).  The paper's rationale for skipping global routing — "it is
// assumed that the number of modules in a design ... is relatively small"
// — shows up as near-zero overflow on the small diagrams, while the dense
// LIFE board is exactly where the forecast lights up.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "place/placer.hpp"
#include "route/global.hpp"

namespace {

using namespace na;
using namespace na::bench;

std::vector<PlacedWorkload>& workloads() {
  static std::vector<PlacedWorkload> all = [] {
    std::vector<PlacedWorkload> w;
    auto add = [&w](std::string name, Network net) -> PlacedWorkload& {
      return add_workload(w, std::move(name), std::move(net));
    };
    place(*add("chain", gen::chain_network({})).placed, fig61_options().placer);
    place(*add("controller", gen::controller_network()).placed,
          fig63_options().placer);
    gen::life_hand_placement(*add("life-hand", gen::life_network()).placed);
    place(*add("life-auto", gen::life_network()).placed, fig67_options().placer);
    return w;
  }();
  return all;
}

void BM_GlobalRoute(benchmark::State& state) {
  const PlacedWorkload& w = workloads()[static_cast<size_t>(state.range(0))];
  int overflow = 0;
  for (auto _ : state) {
    const GlobalRouteResult r = global_route(*w.placed);
    overflow = r.total_overflow;
    benchmark::DoNotOptimize(r.nets.data());
  }
  state.counters["overflow"] = overflow;
  state.SetLabel(w.name);
}

BENCHMARK(BM_GlobalRoute)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  std::printf("\n=== section 5.2.1 — global routing forecast vs detailed result ===\n");
  std::printf("paper: global routing decomposes big problems; skipped for small "
              "diagrams\n");
  std::printf("%-12s %8s %9s %9s %10s | %9s\n", "workload", "gcells", "overflow",
              "max-dem", "assigned", "det.fail");
  for (const PlacedWorkload& w : workloads()) {
    const GlobalRouteResult g = global_route(*w.placed);
    Diagram dia = *w.placed;
    RouterOptions ropt;
    ropt.margin = 12;
    ropt.order_criterion = 2;
    const RouteReport det = route_all(dia, ropt);
    std::printf("%-12s %4dx%-3d %9d %9d %5d/%-4d | %9d\n", w.name.c_str(), g.cols,
                g.rows, g.total_overflow, g.max_congestion, g.assigned,
                g.assigned + g.failed, det.nets_failed);
  }
  std::printf("shape: overflow ~0 on the small diagrams; the congested LIFE "
              "boards carry the demand peaks — where detailed failures (if any) "
              "cluster.\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
