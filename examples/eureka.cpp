// eureka: the routing program of Appendix F.  Reads an ESCHER-style
// diagram (the placement, possibly with prerouted nets) plus the net-list
// connection rules, adds the unrouted nets, and writes the completed
// diagram.  "When a net is unroutable, a warning is displayed."
//
//   $ ./eureka [-s] [-L|-H] [-m n] [-noclaim] [-noretry] [-u -d -l -r]
//              <graphic-file.es> <call-file> <netlist-file> [io-file]
//              [-o out.es]
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
  std::string out_path = "routed.es";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
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
    std::cerr << "eureka: " << e.what() << '\n';
    return 2;
  }
  if (files.size() < 3) {
    std::cerr << "usage: eureka [options] <graphic.es> <call-file>"
              << " <netlist-file> [io-file] [-o out.es]\n"
              << generator_usage() << '\n';
    return 2;
  }
  try {
    const ModuleLibrary lib = ModuleLibrary::standard_cells();
    const std::string io = files.size() > 3 ? read_file(files[3]) : std::string{};
    const Network net = parse_network(lib, read_file(files[1]), io, read_file(files[2]));
    Diagram dia = parse_escher_diagram(net, read_file(files[0]));

    obs::obs_begin(obs);
    const RouteReport report = route_all(dia, opt.router);
    for (NetId n : report.failed_nets) {
      std::cerr << "warning: net '" << net.net(n).name << "' unroutable\n";
    }
    const DiagramStats stats = compute_stats(dia);
    std::cout << stats.summary() << '\n';
    for (const auto& p : validate_diagram(dia)) std::cerr << "PROBLEM: " << p << '\n';
    write_file(out_path, to_escher_diagram(dia, "eureka"));
    std::cout << "wrote " << out_path << '\n';

    obs::MetricsRegistry reg;
    obs::absorb(reg, report);
    obs::absorb(reg, stats);
    if (!obs::obs_finish(obs, reg)) return 1;
  } catch (const std::exception& e) {
    std::cerr << "eureka: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
