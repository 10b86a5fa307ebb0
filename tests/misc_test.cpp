// Deep-coverage tests for corners not exercised elsewhere: the remaining
// standard-cell simulator behaviours, stats formatting, write_network
// shapes, router edge cases, the -S engine through the option parser, and
// the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/generator.hpp"
#include "core/options.hpp"
#include "core/thread_pool.hpp"
#include "gen/facing.hpp"
#include "netlist/module_library.hpp"
#include "netlist/netlist_io.hpp"
#include "schematic/metrics.hpp"
#include "schematic/validate.hpp"
#include "sim/simulator.hpp"

namespace na {
namespace {

// --- simulator: remaining standard cells --------------------------------------

struct Fixture {
  Network net;
  ModuleId m = kNone;
  std::vector<TermId> ins;
};

Fixture wire_up(const char* cell, std::initializer_list<const char*> in_names) {
  Fixture f;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  f.m = lib.instantiate(f.net, cell, "u");
  for (const char* name : in_names) {
    const TermId st = f.net.add_system_terminal(std::string("i_") + name,
                                                TermType::In);
    const NetId n = f.net.get_or_add_net(std::string("n_") + name);
    f.net.connect(n, st);
    f.net.connect(n, *f.net.term_by_name(f.m, name));
    f.ins.push_back(st);
  }
  return f;
}

TEST(SimCells, Mux2SelectsBByS) {
  Fixture f = wire_up("mux2", {"a", "b", "s"});
  sim::Simulator s(f.net);
  s.set_input(f.ins[0], true);   // a
  s.set_input(f.ins[1], false);  // b
  s.set_input(f.ins[2], false);  // s=0 -> a
  s.settle();
  EXPECT_TRUE(s.input(f.m, "a"));
  s.output(f.m, "y", false);  // will be overwritten by settle
  s.settle();
  // read through the behaviour: y has no net; check via value of output term
  // by attaching one:
  const NetId ny = f.net.add_net("ny");
  f.net.connect(ny, *f.net.term_by_name(f.m, "y"));
  sim::Simulator s2(f.net);
  s2.set_input(f.ins[0], true);
  s2.set_input(f.ins[1], false);
  s2.set_input(f.ins[2], false);
  s2.settle();
  EXPECT_TRUE(s2.value(ny));  // selects a
  s2.set_input(f.ins[2], true);
  s2.settle();
  EXPECT_FALSE(s2.value(ny));  // selects b
}

TEST(SimCells, AdderTruthTable) {
  Fixture f = wire_up("adder", {"a", "b", "cin"});
  const NetId ns = f.net.get_or_add_net("ns");
  f.net.connect(ns, *f.net.term_by_name(f.m, "s"));
  const NetId nc = f.net.get_or_add_net("nc");
  f.net.connect(nc, *f.net.term_by_name(f.m, "cout"));
  sim::Simulator s(f.net);
  for (int v = 0; v < 8; ++v) {
    const bool a = v & 1, b = v & 2, cin = v & 4;
    s.set_input(f.ins[0], a);
    s.set_input(f.ins[1], b);
    s.set_input(f.ins[2], cin);
    s.settle();
    const int sum = (a ? 1 : 0) + (b ? 1 : 0) + (cin ? 1 : 0);
    EXPECT_EQ(s.value(ns), (sum & 1) != 0) << "v=" << v;
    EXPECT_EQ(s.value(nc), sum >= 2) << "v=" << v;
  }
}

TEST(SimCells, And3BufInv) {
  Fixture f = wire_up("and3", {"a", "b", "c"});
  const NetId ny = f.net.get_or_add_net("ny");
  f.net.connect(ny, *f.net.term_by_name(f.m, "y"));
  sim::Simulator s(f.net);
  s.set_input(f.ins[0], true);
  s.set_input(f.ins[1], true);
  s.set_input(f.ins[2], true);
  s.settle();
  EXPECT_TRUE(s.value(ny));
  s.set_input(f.ins[1], false);
  s.settle();
  EXPECT_FALSE(s.value(ny));
}

TEST(SimCells, CtrlOutputsAreFunctionsOfInputs) {
  Fixture f = wire_up("ctrl", {"i0", "i1"});
  std::vector<NetId> outs;
  for (int c = 0; c < 7; ++c) {
    const NetId n = f.net.get_or_add_net("nc" + std::to_string(c));
    f.net.connect(n, *f.net.term_by_name(f.m, ("c" + std::to_string(c)).c_str()));
    outs.push_back(n);
  }
  sim::Simulator s(f.net);
  s.set_input(f.ins[0], true);
  s.set_input(f.ins[1], false);
  s.settle();
  EXPECT_TRUE(s.value(outs[0]));   // c0 = i0
  EXPECT_FALSE(s.value(outs[1]));  // c1 = i1
  EXPECT_TRUE(s.value(outs[2]));   // c2 = i0 xor i1
  EXPECT_FALSE(s.value(outs[3]));  // c3 = i0 and i1
  EXPECT_TRUE(s.value(outs[4]));   // c4 = i0 or i1
  EXPECT_FALSE(s.value(outs[5]));  // c5 = !i0
  EXPECT_TRUE(s.value(outs[6]));   // c6 = !i1
}

// --- metrics / stats -----------------------------------------------------------

TEST(Stats, SummaryMentionsEverything) {
  DiagramStats s;
  s.modules = 3;
  s.nets = 5;
  s.routed = 4;
  s.unrouted = 1;
  s.wire_length = 42;
  s.bends = 7;
  s.crossings = 2;
  s.branch_points = 1;
  s.width = 10;
  s.height = 20;
  s.flow_violations = 3;
  const std::string text = s.summary();
  for (const char* frag : {"3 modules", "5 nets", "4 routed", "1 unrouted",
                           "len=42", "bends=7", "cross=2", "branch=1",
                           "area=10x20", "flow-viol=3"}) {
    EXPECT_NE(text.find(frag), std::string::npos) << frag;
  }
}

// --- netlist writer shapes --------------------------------------------------------

TEST(WriteNetwork, EmptyIoFileWhenNoSystemTerms) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  const NetlistFiles files = write_network(net);
  EXPECT_TRUE(files.io_file.empty());
  EXPECT_NE(files.call_file.find("b0 buf"), std::string::npos);
}

TEST(WriteNetwork, RootRecordsForSystemTerminals) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  const TermId st = net.add_system_terminal("x", TermType::In);
  const NetId n = net.add_net("n0");
  net.connect(n, st);
  net.connect(n, *net.term_by_name(0, "a"));
  const NetlistFiles files = write_network(net);
  EXPECT_NE(files.netlist_file.find("n0 root x"), std::string::npos);
  EXPECT_NE(files.io_file.find("x in"), std::string::npos);
}

// --- router edge cases --------------------------------------------------------------

TEST(RouteAll, NetWithSingleTerminalSkipped) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  const NetId n = net.add_net("half");
  net.connect(n, *net.term_by_name(0, "y"));
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 0);
  EXPECT_EQ(r.nets_failed, 0);  // not a routable net: neither bucket
}

TEST(RouteAll, TwoTerminalsOnOneModule) {
  // A feedback net connecting two terminals of the same module must route
  // around (or beside) the module body.
  Network net;
  const ModuleId m = net.add_module("m", "", {6, 4});
  const TermId a = net.add_terminal(m, "out", TermType::Out, {6, 1});
  const TermId b = net.add_terminal(m, "in", TermType::In, {6, 3});
  const NetId n = net.add_net("loop");
  net.connect(n, a);
  net.connect(n, b);
  Diagram dia(net);
  dia.place_module(m, {0, 0});
  const RouteReport r = route_all(dia);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(RouteAll, SegmentEngineViaOptions) {
  GeneratorOptions opt;
  parse_generator_args({"-S"}, opt);
  EXPECT_EQ(opt.router.engine, Engine::SegmentExpansion);
  const gen::FacingOptions fopt{2, 4, 6, 3};
  const Network net = gen::facing_pairs(fopt);
  Diagram dia(net);
  gen::facing_placement(dia, fopt);
  const RouteReport r = route_all(dia, opt.router);
  EXPECT_EQ(r.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

// --- rotated placement end to end ------------------------------------------------

TEST(Pipeline, RotatedModulesRouteCleanly) {
  // Force rotations: a chain where inputs sit on odd sides.
  Network net;
  const ModuleId a = net.add_module("a", "", {4, 4});
  net.add_terminal(a, "y", TermType::Out, {2, 4});  // output on top
  const ModuleId b = net.add_module("b", "", {4, 4});
  net.add_terminal(b, "in", TermType::In, {2, 0});  // input on bottom
  net.add_terminal(b, "y", TermType::Out, {4, 2});
  const ModuleId c = net.add_module("c", "", {4, 4});
  net.add_terminal(c, "in", TermType::In, {4, 2});  // input on the right
  NetId n = net.add_net("ab");
  net.connect(n, *net.term_by_name(a, "y"));
  net.connect(n, *net.term_by_name(b, "in"));
  n = net.add_net("bc");
  net.connect(n, *net.term_by_name(b, "y"));
  net.connect(n, *net.term_by_name(c, "in"));
  GeneratorOptions opt;
  opt.placer.max_part_size = 3;
  opt.placer.max_box_size = 3;
  GeneratorResult result;
  const Diagram dia = generate_diagram(net, opt, &result);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
  // b and c were rotated so their inputs face left.
  EXPECT_EQ(dia.term_facing(*net.term_by_name(b, "in")), geom::Side::Left);
  EXPECT_EQ(dia.term_facing(*net.term_by_name(c, "in")), geom::Side::Left);
}

// --- the thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WorkerIndexAddressesPerWorkerState) {
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  std::atomic<int> seen_mask{0};
  for (int i = 0; i < 300; ++i) {
    pool.submit([&] {
      const int idx = ThreadPool::worker_index();
      if (idx < 0 || idx >= 3) bad.fetch_add(1);
      else seen_mask.fetch_or(1 << idx);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  pool.wait_idle();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(seen_mask.load(), 0b111);  // every worker took from the queue
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // off-pool threads
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.submit([] {});
  pool.wait_idle();
}

}  // namespace
}  // namespace na
