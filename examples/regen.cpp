// RegenSession quickstart: the incremental edit loop.
//
// An editor keeps one RegenSession per open design.  Every time the user
// changes the netlist, it hands the edited Network to update() and gets a
// fresh diagram back — with only the dirty part of the placement and
// routing actually recomputed.  This example walks a datapath through
// three edits and prints what each update really cost.
//
//   $ ./regen [--validate region|off] [--trace <file>]
//           [--stats text|json|off]
//
// --validate picks how each patched diagram is checked: "region"
// (default) validates only the dirty hull and escalates to the whole
// diagram on any issue, "off" skips the check entirely.  The printed
// validation times are the regen.validate spans' rollup.  --trace writes
// the regen.* stage spans of every update; --stats emits the session
// totals and the span rollup.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/options.hpp"
#include "gen/datapath.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "schematic/metrics.hpp"
#include "schematic/validate.hpp"

namespace {

constexpr const char* kUsage =
    "usage: regen [--validate region|off] [--trace <file>]\n"
    "             [--stats text|json|off]\n";

void parse_args(int argc, char** argv, na::RegenOptions& opt,
                na::obs::ObsOptions& obs) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--trace") {
      obs.trace_path = value();
    } else if (arg == "--stats") {
      obs.stats = na::obs::parse_stats_mode(value());
    } else if (arg == "--validate") {
      const std::string mode = value();
      if (mode == "region") {
        opt.validate = true;
      } else if (mode == "off") {
        opt.validate = false;
      } else {
        throw std::runtime_error("bad value '" + mode + "' for --validate");
      }
    } else {
      throw std::runtime_error("unknown flag '" + arg + "'");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;

  RegenOptions opt;
  obs::ObsOptions obs;
  opt.generator.placer.max_part_size = 5;
  opt.generator.placer.max_box_size = 3;
  try {
    parse_args(argc, argv, opt, obs);
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
  std::printf("validation: %d region-scoped, %d whole-diagram, %.2f ms\n",
              t.region_validations, t.full_validations, validated_ms);

  obs::MetricsRegistry reg;
  obs::absorb(reg, t);
  obs::absorb(reg, compute_stats(session.diagram()));
  if (!obs::obs_finish(obs, reg)) return 1;
  return t.incremental >= 3 ? 0 : 1;
}
