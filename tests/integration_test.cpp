// Integration tests: the complete net-list -> placement -> routing ->
// artwork pipeline on the paper's example networks, incremental re-entry
// (preplaced / prerouted), option parsing, and the writers on real output.
#include <gtest/gtest.h>

#include <cstdint>

#include "bench_util.hpp"
#include "core/generator.hpp"
#include "core/options.hpp"
#include "gen/chain.hpp"
#include "gen/controller.hpp"
#include "gen/life.hpp"
#include "netlist/netlist_io.hpp"
#include "route/net_order.hpp"
#include "route/net_task.hpp"
#include "schematic/ascii_writer.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

TEST(Pipeline, ChainFullyRoutedZeroBends) {
  // Figure 6.1: a single string; with the level assignment fixed, the
  // chain nets are drawn with the minimum number of bends (the lemma) —
  // for the buf-style opposed terminals that means few bends overall.
  const Network net = gen::chain_network({});
  GeneratorOptions opt;
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 7;
  GeneratorResult result;
  const Diagram dia = generate_diagram(net, opt, &result);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
  // Chain nets between opposed terminals route straight.
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (net.net(n).name.starts_with("chain")) {
      EXPECT_LE(dia.route(n).bend_count(), 2) << net.net(n).name;
    }
  }
}

TEST(Pipeline, ControllerAllConfigs) {
  const Network net = gen::controller_network();
  struct Cfg {
    int p, b;
  };
  for (const Cfg cfg : {Cfg{1, 1}, Cfg{5, 1}, Cfg{7, 5}}) {
    GeneratorOptions opt;
    opt.placer.max_part_size = cfg.p;
    opt.placer.max_box_size = cfg.b;
    opt.placer.max_connections = cfg.p > 1 ? 8 : 1 << 20;
    opt.router.margin = 6;
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, opt, &result);
    EXPECT_EQ(result.route.nets_failed, 0)
        << "-p " << cfg.p << " -b " << cfg.b;
    EXPECT_TRUE(validate_diagram(dia, true).empty());
  }
}

TEST(Pipeline, LifeHandPlacementRoutesCompletely) {
  // Figure 6.6 equivalent (paper: 220/222 first pass).  With long nets
  // first, the reconstruction routes everything.
  const Network net = gen::life_network();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  GeneratorOptions opt;
  opt.router.margin = 12;
  opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  const GeneratorResult result = generate(dia, opt);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(Pipeline, LifeAutomaticNearlyComplete) {
  // Figure 6.7 equivalent (paper: 221/222): the automatic placement routes
  // all but a couple of nets.
  const Network net = gen::life_network();
  Diagram dia(net);
  GeneratorOptions opt;
  opt.placer.max_part_size = 3;
  opt.placer.max_box_size = 3;
  opt.placer.module_spacing = 1;
  opt.placer.partition_spacing = 2;
  opt.router.margin = 12;
  opt.router.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  const GeneratorResult result = generate(dia, opt);
  EXPECT_LE(result.route.nets_failed, 4);
  EXPECT_GE(result.route.nets_routed, 218);
  EXPECT_TRUE(validate_diagram(dia).empty());
}

TEST(Pipeline, IncrementalMoveAndReroute) {
  // The figure 6.5 workflow: take a generated placement, move one module
  // by hand, reroute from scratch.
  const Network net = gen::controller_network();
  GeneratorOptions opt;
  opt.placer.max_part_size = 1;
  opt.router.margin = 6;
  GeneratorResult r1;
  Diagram dia = generate_diagram(net, opt, &r1);
  ASSERT_EQ(r1.route.nets_failed, 0);

  // Move the controller well away, clear nets, reroute.
  const ModuleId ctrl = *net.module_by_name("ctrl");
  const geom::Rect bounds = dia.placement_bounds();
  dia.clear_routes();
  dia.place_module(ctrl, {bounds.lo.x - 20, bounds.hi.y + 10});
  const RouteReport r2 = route_all(dia, opt.router);
  EXPECT_EQ(r2.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(Pipeline, PreroutedNetsSurviveGeneration) {
  const Network net = gen::chain_network({});
  // First generate to learn terminal positions, then replay one net as a
  // user preroute and regenerate the rest.
  GeneratorOptions opt;
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 7;
  Diagram first = generate_diagram(net, opt);
  const NetId n0 = *net.net_by_name("chain0");
  const auto kept = first.route(n0).polylines;
  ASSERT_FALSE(kept.empty());

  Diagram dia(net);
  // Replay the placement.
  for (int m = 0; m < net.module_count(); ++m) {
    dia.place_module(m, first.placed(m).pos, first.placed(m).rot);
  }
  for (TermId st : net.system_terms()) {
    dia.place_system_term(st, first.term_pos(st));
  }
  for (const auto& pl : kept) dia.add_polyline(n0, pl);
  dia.route(n0).prerouted = true;
  const GeneratorResult result = generate(dia, opt);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_EQ(dia.route(n0).polylines, kept);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(Pipeline, FileFormatsEndToEnd) {
  // Network -> Appendix-A files -> parse -> generate -> all writers.
  const Network original = gen::controller_network();
  const NetlistFiles files = write_network(original);
  ModuleLibrary lib = ModuleLibrary::standard_cells();
  const Network net = parse_network(lib, files.call_file, files.io_file,
                                    files.netlist_file);
  GeneratorOptions opt;
  opt.placer.max_part_size = 5;
  opt.placer.max_connections = 8;
  opt.router.margin = 6;
  GeneratorResult result;
  const Diagram dia = generate_diagram(net, opt, &result);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_GT(to_svg(dia).size(), 1000u);
  EXPECT_GT(to_ascii(dia).size(), 200u);
  EXPECT_GT(to_escher_diagram(dia, "ctrl16").size(), 1000u);
}

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Pipeline, PaperFiguresMatchPinnedDigests) {
  // The golden-diagram contract: figures 6.1-6.7 at their published
  // options must keep producing these exact ESCHER bytes.  A digest change
  // means the generator's output changed, not just its speed.
  struct Figure {
    const char* name;
    Network net;
    GeneratorOptions opt;
    bool hand_placed;
    std::uint64_t digest;
  };
  const Figure figures[] = {
      {"fig6.1", gen::chain_network({}), bench::fig61_options(), false,
       0x12def294230c821cull},
      {"fig6.2", gen::controller_network(), bench::fig62_options(), false,
       0x7dca7bdd22d7cd63ull},
      {"fig6.3", gen::controller_network(), bench::fig63_options(), false,
       0xf43346cbe98ab8b9ull},
      {"fig6.4", gen::controller_network(), bench::fig64_options(), false,
       0x34266b4a3306af68ull},
      {"fig6.6", gen::life_network(), bench::life_router_options(), true,
       0xcb339a3978477db7ull},
      {"fig6.7", gen::life_network(), bench::fig67_options(), false,
       0xf28118672dc7bf95ull},
  };
  for (const Figure& f : figures) {
    Diagram dia(f.net);
    if (f.hand_placed) gen::life_hand_placement(dia);
    const GeneratorResult result = generate(dia, f.opt);
    const std::uint64_t digest = fnv1a(to_escher_diagram(dia, f.name));
    EXPECT_EQ(digest, f.digest) << f.name << std::hex << " digest 0x" << digest;
    if (f.hand_placed) {
      EXPECT_EQ(result.route.total_expansions, 2886282);
    }
  }
}

TEST(Pipeline, LeeLifeMatchesPinnedDigest) {
  // The Lee baseline on the hand-placed LIFE (the fig 6.6 plane): its
  // ESCHER bytes, its expansion count and the bends and crossings its
  // searches report.  Nothing else checks a Lee search's bend or crossing
  // cost, which Lee carries outside its length-only key.  The loop is
  // route_all's two passes with each connection's cost summed on the way.
  const Network net = gen::life_network();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  GeneratorOptions opt = bench::life_router_options();
  opt.router.engine = Engine::Lee;
  detail::DriverSetup setup = detail::prepare_driver(dia, opt.router);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt.router);
  RouteReport report;
  detail::SearchWorkspace ws;
  long bends = 0;
  long crossings = 0;
  auto route = [&](NetId n, bool reclaim) {
    detail::NetTaskResult res =
        detail::route_single_net(setup.grid, dia, n, std::move(setup.pending[n]),
                                 opt.router, setup.has_geometry[n], ws);
    for (const SearchResult& c : res.connections) {
      bends += c.cost.bends;
      crossings += c.cost.crossings;
    }
    detail::commit_connections(dia, n, res, setup, report);
    setup.pending[n] = std::move(res.failed);
    if (!reclaim) return;
    for (TermId t : setup.pending[n]) {
      detail::restore_claim(setup.grid, dia, opt.router, t, n, setup.claims[n]);
    }
  };
  for (NetId n : order) {
    if (setup.pending[n].empty()) continue;
    setup.release_claims(n);
    route(n, true);
  }
  for (NetId n = 0; n < net.net_count(); ++n) setup.release_claims(n);
  for (NetId n : order) {
    if (!setup.pending[n].empty()) route(n, false);
  }
  detail::finish_report(dia, setup, report);

  Diagram again(net);
  gen::life_hand_placement(again);
  const GeneratorResult result = generate(again, opt);
  const std::string escher = to_escher_diagram(dia, "lee");
  EXPECT_EQ(escher, to_escher_diagram(again, "lee"));
  EXPECT_EQ(report.total_expansions, result.route.total_expansions);
  const std::uint64_t digest = fnv1a(escher);
  EXPECT_EQ(digest, 0x37d5942c8bc8c5beull) << std::hex << "digest 0x" << digest;
  EXPECT_EQ(report.total_expansions, 2632309);
  EXPECT_EQ(bends, 420);
  EXPECT_EQ(crossings, 1692);
}

TEST(Options, PabloFlags) {
  GeneratorOptions opt;
  const auto rest = parse_generator_args(
      {"-p", "5", "-b", "3", "-c", "8", "-e", "2", "-i", "1", "-s", "2", "x.net"},
      opt);
  EXPECT_EQ(opt.placer.max_part_size, 5);
  EXPECT_EQ(opt.placer.max_box_size, 3);
  EXPECT_EQ(opt.placer.max_connections, 8);
  EXPECT_EQ(opt.placer.partition_spacing, 2);
  EXPECT_EQ(opt.placer.box_spacing, 1);
  EXPECT_EQ(opt.placer.module_spacing, 2);
  EXPECT_EQ(rest, std::vector<std::string>{"x.net"});
}

TEST(Options, EurekaFlags) {
  GeneratorOptions opt;
  parse_generator_args({"-s", "-L", "-m", "8", "-u", "-d", "-l", "-r"}, opt);
  EXPECT_EQ(opt.router.order, CostOrder::BendsLengthCrossings);
  EXPECT_EQ(opt.router.engine, Engine::Lee);
  EXPECT_EQ(opt.router.margin, 8);
  GeneratorOptions opt2;
  parse_generator_args({"-H", "-noclaim", "-noretry"}, opt2);
  EXPECT_EQ(opt2.router.engine, Engine::Hightower);
  EXPECT_FALSE(opt2.router.use_claimpoints);
  EXPECT_FALSE(opt2.router.retry_failed);
}

TEST(Options, Errors) {
  GeneratorOptions opt;
  EXPECT_THROW(parse_generator_args({"-p"}, opt), std::runtime_error);
  EXPECT_THROW(parse_generator_args({"-zz"}, opt), std::runtime_error);
}

/// How many `name` spans a rollup holds; the phase times live in them.
long long span_count(const std::vector<obs::SpanStats>& rollup,
                     const std::string& name) {
  for (const obs::SpanStats& s : rollup) {
    if (s.name == name) return s.count;
  }
  return 0;
}

TEST(Generator, TimingsPopulated) {
  const Network net = gen::chain_network({});
  GeneratorResult result;
  const auto spans =
      bench::traced([&] { generate_diagram(net, {}, &result); });
  EXPECT_EQ(result.stats.modules, 6);
  if (obs::trace_compiled_in()) {
    EXPECT_EQ(span_count(spans, "place"), 1);
    EXPECT_EQ(span_count(spans, "route"), 1);
  }
}

TEST(Generator, SkipsPlacementWhenFullyPlaced) {
  const Network net = gen::life_network();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  GeneratorOptions opt;
  opt.router.margin = 12;
  GeneratorResult result;
  const auto spans = bench::traced([&] { result = generate(dia, opt); });
  EXPECT_TRUE(result.placement.partitions.empty());
  EXPECT_EQ(span_count(spans, "place"), 0);
  if (obs::trace_compiled_in()) {
    EXPECT_EQ(span_count(spans, "route"), 1);
  }
}

}  // namespace
}  // namespace na
