#include "gen/random_net.hpp"

#include <algorithm>
#include <random>

#include "netlist/module_library.hpp"

namespace na::gen {

Network random_network(const RandomNetOptions& opt) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  std::mt19937 rng(opt.seed);
  const std::vector<std::string> shapes = {"buf", "inv",  "and2", "or2", "xor2",
                                           "dff", "mux2", "reg",  "adder"};

  std::vector<ModuleId> mods;
  for (int i = 0; i < opt.modules; ++i) {
    const auto& shape = shapes[rng() % shapes.size()];
    mods.push_back(lib.instantiate(net, shape, "m" + std::to_string(i)));
  }

  auto free_terms = [&](ModuleId m, TermType type) {
    std::vector<TermId> out;
    for (TermId t : net.module(m).terms) {
      if (net.term(t).type == type && net.term(t).net == kNone) out.push_back(t);
    }
    return out;
  };

  // Spine: each module's first free input is driven from a random earlier
  // module, keeping the network connected and mostly left-to-right.
  int net_no = 0;
  for (int i = 1; i < opt.modules; ++i) {
    const auto ins = free_terms(mods[i], TermType::In);
    if (ins.empty()) continue;
    // Earlier module with a free output; fall back to reusing a driven net.
    for (int tries = 0; tries < 8; ++tries) {
      const ModuleId src = mods[rng() % i];
      const auto outs = free_terms(src, TermType::Out);
      if (!outs.empty()) {
        const NetId n = net.add_net("n" + std::to_string(net_no++));
        net.connect(n, outs[rng() % outs.size()]);
        net.connect(n, ins[0]);
        break;
      }
      // Reuse an existing driven net of src (multi-point fan-out).
      const auto nets = net.nets_of(src);
      if (!nets.empty()) {
        net.connect(nets[rng() % nets.size()], ins[0]);
        break;
      }
    }
  }

  // Extra fan-out nets between random free outputs and free inputs.
  for (int e = 0; e < opt.extra_nets; ++e) {
    std::vector<TermId> outs;
    std::vector<TermId> ins;
    for (ModuleId m : mods) {
      for (TermId t : free_terms(m, TermType::Out)) outs.push_back(t);
      for (TermId t : free_terms(m, TermType::In)) ins.push_back(t);
    }
    if (outs.empty() || ins.empty()) break;
    const TermId src = outs[rng() % outs.size()];
    const NetId n = net.add_net("e" + std::to_string(e));
    net.connect(n, src);
    const int fanout = 1 + static_cast<int>(rng() % 3);  // 1 to 3 sinks
    std::shuffle(ins.begin(), ins.end(), rng);
    int connected = 0;
    for (TermId t : ins) {
      if (net.term(t).module == net.term(src).module) continue;  // no self loop
      if (net.term(t).net != kNone) continue;
      net.connect(n, t);
      if (++connected >= fanout) break;
    }
    if (connected == 0) {
      // Keep the invariant "every net >= 2 terminals": tie to a system out.
      net.connect(n, net.add_system_terminal("eo" + std::to_string(e), TermType::Out));
    }
  }

  // A couple of primary inputs and outputs on remaining free terminals.
  int made = 0;
  for (ModuleId m : mods) {
    for (TermId t : free_terms(m, TermType::In)) {
      if (made >= 3) break;
      const NetId n = net.add_net("pi" + std::to_string(made));
      net.connect(n, net.add_system_terminal("in" + std::to_string(made), TermType::In));
      net.connect(n, t);
      ++made;
    }
    if (made >= 3) break;
  }
  made = 0;
  for (auto it = mods.rbegin(); it != mods.rend() && made < 2; ++it) {
    const auto outs = free_terms(*it, TermType::Out);
    if (outs.empty()) continue;
    const NetId n = net.add_net("po" + std::to_string(made));
    net.connect(n, outs[0]);
    net.connect(n, net.add_system_terminal("out" + std::to_string(made), TermType::Out));
    ++made;
  }
  return net;
}

}  // namespace na::gen
