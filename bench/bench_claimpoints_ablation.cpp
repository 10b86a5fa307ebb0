// Section 5.7 ablation — claimpoints: "in practice, a decrease of about
// 75% in the number of unroutable nets may be obtained."
//
// The bench routes a set of congested placements with claimpoints (and the
// retry pass) on and off, reporting unroutable-net counts.  The retry pass
// is ablated separately since it is part of the same extension ("all
// unconnected terminals should be tried again after all the claimpoints
// have been removed").
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "gen/facing.hpp"
#include "place/placer.hpp"

namespace {

using namespace na;
using namespace na::bench;

/// Congested workloads: the LIFE board (hand and auto placement) plus
/// random networks placed with tight spacing.
std::vector<PlacedWorkload>& workloads() {
  static std::vector<PlacedWorkload> all = [] {
    std::vector<PlacedWorkload> w;
    auto add = [&w](std::string name, Network net) -> PlacedWorkload& {
      return add_workload(w, std::move(name), std::move(net));
    };
    // Facing-pair channels (the scaled figure 5.10 scenario): the failure
    // mode claimpoints target.  Channel widths 3 and 4 bracket the paper's
    // operating point.
    for (int channel : {3, 4}) {
      for (unsigned seed = 1; seed <= 4; ++seed) {
        gen::FacingOptions fopt;
        fopt.channel = channel;
        fopt.seed = seed;
        auto& f = add("facing-c" + std::to_string(channel) + "-s" +
                          std::to_string(seed),
                      gen::facing_pairs(fopt));
        gen::facing_placement(*f.placed, fopt);
      }
    }
    // The LIFE board for context: its residual failures are ring-capacity
    // bound, which claims help less with.
    gen::life_hand_placement(*add("life-hand", gen::life_network()).placed);
    place(*add("life-auto", gen::life_network()).placed, fig67_options().placer);
    return w;
  }();
  return all;
}

int route_failures(const PlacedWorkload& w, bool claims, bool retry) {
  Diagram dia = *w.placed;
  RouterOptions opt;
  opt.use_claimpoints = claims;
  opt.retry_failed = retry;
  opt.margin = 6;
  return route_all(dia, opt).nets_failed;
}

void BM_Route_Claims(benchmark::State& state) {
  const bool claims = state.range(0) != 0;
  int total_failed = 0;
  for (auto _ : state) {
    total_failed = 0;
    for (const PlacedWorkload& w : workloads()) {
      total_failed += route_failures(w, claims, true);
    }
  }
  state.counters["unrouted_total"] = total_failed;
  state.SetLabel(claims ? "claimpoints on" : "claimpoints off");
}

BENCHMARK(BM_Route_Claims)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->MinTime(1.0);

}  // namespace

int main(int argc, char** argv) {
  using namespace na::bench;
  std::printf("\n=== section 5.7 — claimpoints ablation ===\n");
  std::printf("paper: claimpoints give ~75%% fewer unroutable nets\n");
  std::printf("%-14s %12s %12s %12s %12s\n", "workload", "no-claims", "claims",
              "retry-only", "claims+retry");
  int sum_none = 0, sum_claims = 0, sum_retry = 0, sum_full = 0;
  int facing_none = 0, facing_full = 0;
  for (const PlacedWorkload& w : workloads()) {
    const int none = route_failures(w, false, false);
    const int claims_only = route_failures(w, true, false);
    const int retry_only = route_failures(w, false, true);
    const int full = route_failures(w, true, true);
    std::printf("%-14s %12d %12d %12d %12d\n", w.name.c_str(), none, claims_only,
                retry_only, full);
    sum_none += none;
    sum_claims += claims_only;
    sum_retry += retry_only;
    sum_full += full;
    if (w.name.starts_with("facing")) {
      facing_none += none;
      facing_full += full;
    }
  }
  std::printf("%-14s %12d %12d %12d %12d\n", "TOTAL", sum_none, sum_claims,
              sum_retry, sum_full);
  if (facing_none > 0) {
    std::printf("reduction on blocked-terminal workloads (facing-*): %.0f%% "
                "(paper: ~75%%)\n",
                100.0 * (facing_none - facing_full) / facing_none);
  }
  if (sum_none > 0) {
    std::printf("reduction overall (incl. ring-capacity-bound LIFE): %.0f%%\n",
                100.0 * (sum_none - sum_full) / sum_none);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
