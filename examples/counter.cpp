// Gate-level counter example: a 3-bit synchronous counter built purely
// from standard cells (xor/and/dff), generated as a schematic and then
// *simulated* to prove the drawn artwork computes — the full
// synthesis-feedback loop the paper's introduction motivates.
//
//   bit0' = !bit0                  (toggle)
//   bit1' = bit1 ^ bit0            (carry from bit0)
//   bit2' = bit2 ^ (bit1 & bit0)   (carry from bits 1..0)
//
//   $ ./counter [out_dir]
#include <iostream>

#include "core/generator.hpp"
#include "netlist/module_library.hpp"
#include "netlist/text_io.hpp"
#include "schematic/ascii_writer.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"
#include "sim/simulator.hpp"

namespace {

struct Counter {
  na::Network net;
  na::ModuleId ff[3] = {};
  na::TermId count_out[3] = {};
};

Counter build_counter() {
  using namespace na;
  Counter c;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  const ModuleId inv0 = lib.instantiate(c.net, "inv", "t0");
  const ModuleId xor1 = lib.instantiate(c.net, "xor2", "x1");
  const ModuleId and01 = lib.instantiate(c.net, "and2", "a01");
  const ModuleId xor2 = lib.instantiate(c.net, "xor2", "x2");
  for (int b = 0; b < 3; ++b) {
    c.ff[b] = lib.instantiate(c.net, "dff", "b" + std::to_string(b));
  }
  auto t = [&](ModuleId m, const char* name) { return *c.net.term_by_name(m, name); };
  auto wire = [&](const char* name, std::initializer_list<TermId> terms) {
    const NetId n = c.net.add_net(name);
    for (TermId term : terms) c.net.connect(n, term);
  };
  wire("q0", {t(c.ff[0], "q"), t(inv0, "a"), t(xor1, "b"), t(and01, "a")});
  wire("q1", {t(c.ff[1], "q"), t(xor1, "a"), t(and01, "b")});
  wire("q2", {t(c.ff[2], "q"), t(xor2, "a")});
  wire("n0", {t(inv0, "y"), t(c.ff[0], "d")});
  wire("n1", {t(xor1, "y"), t(c.ff[1], "d")});
  wire("c01", {t(and01, "y"), t(xor2, "b")});
  wire("n2", {t(xor2, "y"), t(c.ff[2], "d")});
  for (int b = 0; b < 3; ++b) {
    c.count_out[b] =
        c.net.add_system_terminal("cnt" + std::to_string(b), TermType::Out);
    wire(("o" + std::to_string(b)).c_str(),
         {t(c.ff[b], "qn"), c.count_out[b]});  // qn taps keep q free for logic
  }
  const TermId ck = c.net.add_system_terminal("ck", TermType::In);
  wire("ck", {ck, t(c.ff[0], "ck"), t(c.ff[1], "ck"), t(c.ff[2], "ck")});
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  Counter c = build_counter();

  GeneratorOptions opt;
  opt.placer.max_part_size = 7;
  opt.placer.max_box_size = 4;
  opt.router.margin = 8;
  GeneratorResult result;
  const Diagram dia = generate_diagram(c.net, opt, &result);
  std::cout << to_ascii(dia) << '\n' << result.stats.summary() << '\n';
  int rc = 0;
  for (const auto& p : validate_diagram(dia, true)) {
    std::cout << "PROBLEM: " << p << '\n';
    rc = 1;
  }
  try {
    write_file(out_dir + "/counter.svg", to_svg(dia));
  } catch (const std::exception& e) {
    std::cerr << "counter: " << e.what() << '\n';
    return 1;
  }

  // Simulate the artwork: 8 ticks must count 0,1,2,...,7.
  sim::Simulator s(c.net);
  bool counts = true;
  for (int expect = 0; expect < 8; ++expect) {
    s.settle();
    int value = 0;
    for (int b = 0; b < 3; ++b) value |= (s.state(c.ff[b]) & 1) << b;
    if (value != expect) {
      std::cout << "SIM PROBLEM: tick " << expect << " shows " << value << '\n';
      counts = false;
    }
    s.tick();
  }
  std::cout << (counts ? "simulation: the drawn counter counts 0..7 — results "
                         "positive\n"
                       : "simulation FAILED\n");
  return rc + (counts ? 0 : 1);
}
