// Section 5.2 shoot-out — the routing engines the paper discusses:
//
//   line expansion  (the paper's choice): min bends, guaranteed solution;
//   Lee maze runner (5.2.2): min length, guaranteed, "requires a large
//                   memory", "speed improves as the area gets congested";
//   Hightower       (5.2.3): "quite fast for simple mazes ... does not
//                   guarantee a connection whenever it exists".
//
// Reproduced shape: all engines route the easy workloads; Hightower loses
// nets on congested ones; Lee produces the shortest but bendiest wires;
// line expansion produces the fewest bends.
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
    place(*add("chain", gen::chain_network({})).placed, fig61_options().placer);
    place(*add("controller", gen::controller_network()).placed,
          fig63_options().placer);
    gen::life_hand_placement(*add("life-hand", gen::life_network()).placed);
    for (unsigned seed : {31u, 32u, 33u}) {
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

struct EngineRow {
  int unrouted = 0;
  int bends = 0;
  int length = 0;
  long expansions = 0;
};

EngineRow route_with(const PlacedWorkload& w, Engine engine) {
  Diagram dia = *w.placed;
  RouterOptions opt;
  opt.engine = engine;
  opt.margin = 12;
  opt.order_criterion = 2;  // long nets first, the tuned configuration
  const RouteReport r = route_all(dia, opt);
  require_valid(dia, w.name.c_str());
  const DiagramStats s = compute_stats(dia);
  return {r.nets_failed, s.bends, s.wire_length, r.total_expansions};
}

void BM_Engine(benchmark::State& state) {
  const Engine engine = static_cast<Engine>(state.range(0));
  int unrouted = 0;
  for (auto _ : state) {
    unrouted = 0;
    for (const auto& w : workloads()) unrouted += route_with(w, engine).unrouted;
  }
  state.counters["unrouted_total"] = unrouted;
  static const char* names[] = {"line-expansion", "lee", "hightower",
                                "segment-expansion"};
  state.SetLabel(names[state.range(0)]);
}

BENCHMARK(BM_Engine)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)->MinTime(1.0);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  std::printf("\n=== section 5.2 — router baselines ===\n");
  std::printf("paper: line expansion = min bends + guaranteed; Lee = min length "
              "+ guaranteed; Hightower = fast but incomplete\n");
  std::printf("%-14s | %-20s | %-20s | %-20s | %-20s\n", "", "line-expansion",
              "Lee", "Hightower", "segment-expansion");
  std::printf("%-14s | %4s %6s %7s | %4s %6s %7s | %4s %6s %7s | %4s %6s %7s\n",
              "workload", "fail", "bends", "length", "fail", "bends", "length",
              "fail", "bends", "length", "fail", "bends", "length");
  int lx_bends = 0, lee_bends = 0;
  int lx_len = 0, lee_len = 0;
  for (const PlacedWorkload& w : workloads()) {
    const EngineRow lx = route_with(w, Engine::LineExpansion);
    const EngineRow lee = route_with(w, Engine::Lee);
    const EngineRow ht = route_with(w, Engine::Hightower);
    const EngineRow sx = route_with(w, Engine::SegmentExpansion);
    std::printf("%-14s | %4d %6d %7d | %4d %6d %7d | %4d %6d %7d | %4d %6d %7d\n",
                w.name.c_str(), lx.unrouted, lx.bends, lx.length, lee.unrouted,
                lee.bends, lee.length, ht.unrouted, ht.bends, ht.length,
                sx.unrouted, sx.bends, sx.length);
    lx_bends += lx.bends;
    lee_bends += lee.bends;
    lx_len += lx.length;
    lee_len += lee.length;
  }
  std::printf("shape check: line-expansion bends (%d) <= Lee bends (%d); "
              "Lee length (%d) <= line-expansion length (%d)\n",
              lx_bends, lee_bends, lee_len, lx_len);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
