// Datapath example: a register/ALU loop with a control unit — the kind of
// synthesis intermediate the paper's introduction motivates ("automatic
// generation of complex VLSI-circuits out of a high level description ...
// schematic diagrams provide feedback during the design process").
//
// Demonstrates option exploration: the same network is generated with
// several partition/box settings (the paper's figures 6.2-6.4 workflow) so
// the designer can pick the most readable diagram.
//
//   $ ./datapath [out_dir]
#include <iostream>

#include "core/generator.hpp"
#include "netlist/module_library.hpp"
#include "netlist/text_io.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"

namespace {

na::Network build_datapath() {
  using namespace na;
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  const ModuleId rega = lib.instantiate(net, "reg", "rega");
  const ModuleId regb = lib.instantiate(net, "reg", "regb");
  const ModuleId alu = lib.instantiate(net, "alu", "alu");
  const ModuleId acc = lib.instantiate(net, "reg", "acc");
  const ModuleId mux = lib.instantiate(net, "mux2", "wbmux");
  const ModuleId ctl = lib.instantiate(net, "ctrl", "ctl");

  auto t = [&](ModuleId m, const char* name) { return *net.term_by_name(m, name); };
  auto wire = [&](const char* name, std::initializer_list<TermId> terms) {
    const NetId n = net.add_net(name);
    for (TermId term : terms) net.connect(n, term);
  };

  wire("busa", {t(rega, "q"), t(alu, "a")});
  wire("busb", {t(regb, "q"), t(alu, "b")});
  wire("res", {t(alu, "y"), t(acc, "d")});
  wire("wb", {t(acc, "q"), t(mux, "a")});
  wire("fwd", {t(mux, "y"), t(rega, "d")});
  wire("aluop", {t(ctl, "c0"), t(alu, "op")});
  wire("lda", {t(ctl, "c1"), t(rega, "en")});
  wire("ldb", {t(ctl, "c2"), t(regb, "en")});
  wire("ldacc", {t(ctl, "c3"), t(acc, "en")});
  wire("sel", {t(ctl, "c4"), t(mux, "s")});
  wire("flags", {t(alu, "flags"), t(ctl, "i0")});

  wire("din", {net.add_system_terminal("din", TermType::In), t(regb, "d"), t(mux, "b")});
  wire("clk", {net.add_system_terminal("clk", TermType::In), t(rega, "ck"),
               t(regb, "ck"), t(acc, "ck")});
  wire("go", {net.add_system_terminal("go", TermType::In), t(ctl, "i1")});
  wire("dout", {t(ctl, "c6"), net.add_system_terminal("dout", TermType::Out)});
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const Network net = build_datapath();

  struct Config {
    const char* name;
    int part, box;
  };
  int rc = 0;
  for (const Config& cfg : {Config{"clustered", 1, 1}, Config{"grouped", 4, 1},
                            Config{"strings", 6, 4}}) {
    GeneratorOptions opt;
    opt.placer.max_part_size = cfg.part;
    opt.placer.max_box_size = cfg.box;
    opt.router.margin = 6;
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, opt, &result);
    std::cout << "-p " << cfg.part << " -b " << cfg.box << " (" << cfg.name
              << "): " << result.stats.summary() << '\n';
    const auto problems = validate_diagram(dia);
    for (const auto& p : problems) {
      std::cout << "PROBLEM: " << p << '\n';
      rc = 1;
    }
    try {
      write_file(out_dir + "/datapath_" + cfg.name + ".svg", to_svg(dia));
    } catch (const std::exception& e) {
      std::cerr << "datapath: " << e.what() << '\n';
      return 1;
    }
  }
  std::cout << "SVGs written to " << out_dir << '\n';
  return rc;
}
