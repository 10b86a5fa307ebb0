// The incremental regeneration engine under the ESCHER-style edit loop:
// small edit scripts (re-pin a terminal, add a module, delete a net)
// against the LIFE diagram and an automatically generated datapath, each
// measured as incremental update vs full from-scratch regeneration.
//
// The ISSUE acceptance scenario is the first one: a single-module edit on
// the hand-placed LIFE diagram must re-route < 25% of the 222 nets and run
// >= 3x faster than the full regeneration.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench_util.hpp"
#include "gen/datapath.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "schematic/metrics.hpp"

namespace {

using namespace na;
using namespace na::bench;

const Network& life() {
  static const Network net = [] {
    Network n = gen::life_network();
    require_counts(n, 27, 222, "LIFE network");
    return n;
  }();
  return net;
}

RegenOptions life_session_options() {
  RegenOptions opt;
  opt.generator = fig67_options();
  return opt;
}

/// The routed hand-placed LIFE diagram every LIFE scenario starts from.
const Diagram& life_baseline() {
  static const Diagram dia = [] {
    Diagram d(life());
    gen::life_hand_placement(d);
    route_all(d, life_session_options().generator.router);
    require_valid(d, "LIFE baseline");
    return d;
  }();
  return dia;
}

// ----- the edit scripts ------------------------------------------------------

Network life_repin() {  // single-module edit: move rule11's write-enable pin
  NetworkEditor ed(life());
  ed.move_terminal("rule11", "we", {6, 11});
  return ed.build();
}

Network life_add_module() {  // attach a probe module to the global mode net
  NetworkEditor ed(life());
  ed.add_module("probe", "probe", {4, 4});
  ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
  ed.connect("mode", "probe", "i");
  return ed.build();
}

Network life_delete_net() {  // drop one observation tap
  NetworkEditor ed(life());
  ed.remove_net("alive0");
  return ed.build();
}

// ----- measurement harness ---------------------------------------------------

struct Timing {
  double ms = 1e18;  ///< best of the repetitions
  RegenCounters counters;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times session.update(edited) on a session freshly adopted from the
/// routed LIFE baseline.  Adoption happens outside the timed region: the
/// editor pays it once per loaded diagram, not once per edit.
/// `validate_full` forces the pre-region whole-diagram check — the
/// baseline the region-scoped validation share is measured against.
Timing time_life_incremental(const Network& edited, bool validate_full = false) {
  Timing best;
  for (int rep = 0; rep < 5; ++rep) {
    RegenOptions opt = life_session_options();
    opt.validate_full = validate_full;
    RegenSession session(opt);
    session.adopt(life(), life_baseline());
    const auto t0 = std::chrono::steady_clock::now();
    session.update(edited);
    best.ms = std::min(best.ms, ms_since(t0));
    best.counters = session.last();
    require_valid(session.diagram(), "incremental LIFE update");
  }
  return best;
}

/// The from-scratch cost of the same edited netlist: hand placement for
/// the surviving LIFE modules, automatic placement for anything new, plus
/// a full route of all nets — what the editor would pay without the engine.
Timing time_life_full(const Network& edited) {
  Timing best;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    Diagram dia(edited);
    gen::life_hand_placement(dia);
    const GeneratorResult r = generate(dia, life_session_options().generator);
    best.ms = std::min(best.ms, ms_since(t0));
    best.counters.nets_rerouted = r.route.nets_routed;
    require_valid(dia, "from-scratch LIFE regen");
  }
  return best;
}

void report_scenario(const char* name, const Timing& inc, const Timing& full,
                     int net_count) {
  std::printf(
      "    %-16s incremental %6.1fms  full %6.1fms  speedup %4.1fx  "
      "rerouted %d/%d kept %d extended %d scrubbed %d replaced %d frozen %d  "
      "validate %.2fms (%s)\n",
      name, inc.ms, full.ms, full.ms / inc.ms, inc.counters.nets_rerouted,
      net_count, inc.counters.nets_kept, inc.counters.nets_extended,
      inc.counters.cells_scrubbed, inc.counters.modules_replaced,
      inc.counters.modules_frozen,
      inc.counters.validate_ms,
      inc.counters.full_validations ? "full" : "region");
}

// ----- google-benchmark entries ---------------------------------------------

void BM_LifeRepin_Incremental(benchmark::State& state) {
  const Network edited = life_repin();
  int rerouted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RegenSession session(life_session_options());
    session.adopt(life(), life_baseline());
    state.ResumeTiming();
    session.update(edited);
    rerouted = session.last().nets_rerouted;
  }
  state.counters["rerouted"] = rerouted;
}

void BM_LifeRepin_FullRegen(benchmark::State& state) {
  const Network edited = life_repin();
  for (auto _ : state) {
    Diagram dia(edited);
    gen::life_hand_placement(dia);
    benchmark::DoNotOptimize(route_all(dia, life_session_options().generator.router));
  }
}

void BM_DatapathAddModule_Incremental(benchmark::State& state) {
  const Network net = gen::datapath_network({16});
  NetworkEditor ed(net);
  ed.add_module("probe", "probe", {4, 4});
  ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
  ed.connect("b7_acc", "probe", "i");
  const Network edited = ed.build();
  RegenOptions opt;
  opt.generator.placer.max_part_size = 5;
  opt.generator.placer.max_box_size = 3;
  int rerouted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RegenSession session(opt);
    session.update(net);
    state.ResumeTiming();
    session.update(edited);
    rerouted = session.last().nets_rerouted;
  }
  state.counters["rerouted"] = rerouted;
}

BENCHMARK(BM_LifeRepin_Incremental)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_LifeRepin_FullRegen)->Unit(benchmark::kMillisecond)->MinTime(2.0);
BENCHMARK(BM_DatapathAddModule_Incremental)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  using namespace na::bench;

  print_header("incremental regeneration — edit scripts",
               "no historical counterpart; acceptance: single-module LIFE edit "
               "re-routes < 25% of nets, >= 3x faster than full regen");

  const int nets = life().net_count();
  struct Scenario {
    const char* name;
    Network edited;
  };
  const Scenario scenarios[] = {
      {"life_repin", life_repin()},
      {"life_add_module", life_add_module()},
      {"life_delete_net", life_delete_net()},
  };
  for (const Scenario& s : scenarios) {
    const Timing inc = time_life_incremental(s.edited);
    const Timing full = time_life_full(s.edited);
    report_scenario(s.name, inc, full, nets);
    if (inc.counters.incremental != 1) {
      std::fprintf(stderr, "FATAL: %s fell back to full regeneration\n", s.name);
      std::abort();
    }
  }

  // Validation-share comparison on the repin scenario: the same patch
  // checked by the whole-diagram validator (pre-region behaviour) vs the
  // region-scoped one RegenSession now uses by default.
  const Network repin = life_repin();
  const Timing check_full = time_life_incremental(repin, /*validate_full=*/true);
  const Timing check_region = time_life_incremental(repin);
  std::printf(
      "    %-16s full check %.2fms of %.1fms (%.0f%%)  region check %.2fms of "
      "%.1fms (%.0f%%)\n",
      "repin_validation", check_full.counters.validate_ms, check_full.ms,
      100.0 * check_full.counters.validate_ms / check_full.ms,
      check_region.counters.validate_ms, check_region.ms,
      100.0 * check_region.counters.validate_ms / check_region.ms);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
