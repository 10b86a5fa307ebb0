// RegenSession quickstart: the incremental edit loop.
//
// An editor keeps one RegenSession per open design.  Every time the user
// changes the netlist, it hands the edited Network to update() and gets a
// fresh diagram back — with only the dirty part of the placement and
// routing actually recomputed.  This example walks a datapath through
// three edits and prints what each update really cost.
//
//   $ ./regen [--trace <file>] [--stats text|json|off]
//
// Each patched diagram is validated over its dirty hull only, falling
// back to a full regeneration on any issue; the printed validation times
// are the regen.validate spans' rollup.  --trace writes the regen.* stage
// spans of every update; --stats emits the session totals and the span
// rollup.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "gen/datapath.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "obs/obs_options.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "schematic/metrics.hpp"
#include "schematic/validate.hpp"

namespace {

constexpr const char* kUsage =
    "usage: regen [--trace <file>] [--stats text|json|off]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace na;

  GeneratorOptions opt;
  obs::ObsOptions obs;
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 3;
  try {
    const std::vector<std::string> rest =
        obs::parse_obs_args({argv + 1, argv + argc}, obs);
    if (!rest.empty()) {
      throw std::runtime_error("unexpected argument '" + rest[0] + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), kUsage);
    return 2;
  }
  obs::obs_begin(obs);
  // The validation times below come from the span rollup, so the recorder
  // runs whether or not a trace or stats were asked for.
  obs::trace_enable();
  RegenSession session(opt);

  double validated_ms = 0;  // regen.validate time reported so far
  auto show = [&](const char* what) {
    const RegenCounters& c = session.last();
    const double total_ms = obs::span_total_ms(
        obs::span_rollup(obs::trace_events()), "regen.validate");
    std::printf(
        "%-28s %s  replaced %2d  frozen %2d  rerouted %3d  extended %d  "
        "kept %3d  validate %.2fms\n",
        what, c.full_regens ? "FULL" : "incr", c.modules_replaced,
        c.modules_frozen, c.nets_rerouted, c.nets_extended, c.nets_kept,
        total_ms - validated_ms);
    validated_ms = total_ms;
    if (!validate_diagram(session.diagram()).empty()) {
      std::printf("INVALID DIAGRAM\n");
      std::exit(1);
    }
  };

  // First update: nothing cached yet, so this is a full generation.
  const Network base = gen::datapath_network({8});
  session.update(base);
  show("initial generation");

  // Edit 1: probe one accumulator bit.  One new module, one changed net.
  NetworkEditor ed1(base);
  ed1.add_module("probe", "probe", {4, 4});
  ed1.add_module_terminal("probe", "i", TermType::In, {0, 2});
  ed1.connect("b2_acc", "probe", "i");
  const Network probed = ed1.build();
  session.update(probed);
  show("edit 1: add probe module");

  // Edit 2: drop the controller status net.  Pure routing change — the
  // placement is untouched and only the dead geometry is scrubbed.
  NetworkEditor ed2(probed);
  ed2.remove_net("stat");
  const Network no_stat = ed2.build();
  session.update(no_stat);
  show("edit 2: delete status net");

  // Edit 3: re-pin the probe input to the top edge.  Only the probe's
  // partition is re-placed; everything clean stays frozen.
  NetworkEditor ed3(no_stat);
  ed3.move_terminal("probe", "i", {2, 4});
  session.update(ed3.build());
  show("edit 3: re-pin probe input");

  const RegenCounters& t = session.totals();
  std::printf("totals: %d updates, %d incremental, %d full regenerations\n",
              t.updates, t.incremental, t.full_regens);
  std::printf("validation: %d region-scoped, %.2f ms\n",
              t.region_validations, validated_ms);

  obs::MetricsRegistry reg;
  obs::absorb(reg, t);
  obs::absorb(reg, compute_stats(session.diagram()));
  if (!obs::obs_finish(obs, reg)) return 1;
  return t.incremental >= 3 ? 0 : 1;
}
