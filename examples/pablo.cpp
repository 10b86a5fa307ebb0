// pablo: the placement program of Appendix E.  Reads the Appendix-A
// net-list files, places modules and system terminals (no nets), and
// writes the diagram in the ESCHER-style format for the editor — or for
// eureka to route.
//
//   $ ./pablo [-p n] [-b n] [-c n] [-e n] [-i n] [-s n] [-g preplaced.es]
//             <call-file> <netlist-file> [io-file] [-o out.es]
//
// The -g option reads a preplaced (possibly prerouted) partial diagram;
// the preplaced part forms a partition of its own and stays put.
#include <iostream>

#include "core/options.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/text_io.hpp"
#include "obs/stats_absorb.hpp"
#include "schematic/escher_reader.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/metrics.hpp"
#include "schematic/validate.hpp"

int main(int argc, char** argv) {
  using namespace na;
  std::string out_path = "placed.es";
  std::string preplaced_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "-g" && i + 1 < argc) {
      preplaced_path = argv[++i];
    } else {
      args.push_back(a);
    }
  }
  GeneratorOptions opt;
  obs::ObsOptions obs;
  std::vector<std::string> files;
  try {
    files = parse_generator_args(args, opt, &obs);
  } catch (const std::exception& e) {
    std::cerr << "pablo: " << e.what() << '\n';
    return 2;
  }
  if (files.size() < 2) {
    std::cerr << "usage: pablo [options] <call-file> <netlist-file> [io-file]"
              << " [-o out.es] [-g preplaced.es]\n"
              << generator_usage() << '\n';
    return 2;
  }
  try {
    const ModuleLibrary lib = ModuleLibrary::standard_cells();
    const std::string io = files.size() > 2 ? read_file(files[2]) : std::string{};
    const Network net = parse_network(lib, read_file(files[0]), io, read_file(files[1]));

    Diagram dia(net);
    if (!preplaced_path.empty()) {
      dia = parse_escher_diagram(net, read_file(preplaced_path));
    }
    obs::obs_begin(obs);
    const PlacementInfo info = place(dia, opt.placer);
    std::cout << "placed " << net.module_count() << " modules in "
              << info.partitions.size() << " partitions\n";
    for (const auto& p : validate_diagram(dia)) std::cerr << "PROBLEM: " << p << '\n';
    write_file(out_path, to_escher_diagram(dia, "pablo"));
    std::cout << "wrote " << out_path << '\n';

    obs::MetricsRegistry reg;
    reg.set("place.partitions", static_cast<long long>(info.partitions.size()));
    obs::absorb(reg, compute_stats(dia));
    if (!obs::obs_finish(obs, reg)) return 1;
  } catch (const std::exception& e) {
    std::cerr << "pablo: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
