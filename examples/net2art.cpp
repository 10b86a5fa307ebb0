// net2art: the full file-driven flow of the paper — "from network to
// artwork".  Reads the Appendix-A net-list files, generates the diagram,
// and writes SVG, ASCII and ESCHER-style output.
//
//   $ ./net2art <call-file> <netlist-file> [io-file] [-o out_prefix] [flags]
//   $ ./net2art --synth <topology>:<modules>[:<seed>[:<fanout>]] [flags]
//
// Flags are the historical PABLO/EUREKA options (see core/options.hpp).
// Module templates are resolved against the built-in standard cell library;
// unknown templates can be supplied as Appendix-B descriptions via
// `-lib <file>` (one module per file, repeatable).  `--synth` replaces the
// input files with a seeded synthetic network (topology: grid, torus, dag).
#include <charconv>
#include <cmath>
#include <iostream>

#include "core/generator.hpp"
#include "core/options.hpp"
#include "gen/synth.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/text_io.hpp"
#include "obs/stats_absorb.hpp"
#include "schematic/ascii_writer.hpp"
#include "schematic/eps_writer.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/svg_writer.hpp"
#include "schematic/validate.hpp"

namespace {

/// Parses "<topology>:<modules>[:<seed>[:<fanout>]]", e.g. "grid:1000",
/// "torus:256:7", "dag:5000:1:2.5".  Every field must parse in full; a
/// bad spec throws a message naming --synth.
na::gen::SynthOptions parse_synth_spec(const std::string& spec) {
  std::vector<std::string> fields;
  for (size_t start = 0;;) {
    const size_t colon = spec.find(':', start);
    fields.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() < 2 || fields.size() > 4) {
    throw std::runtime_error("bad value '" + spec + "' for --synth (want " +
                             "<topology>:<modules>[:<seed>[:<fanout>]])");
  }
  na::gen::SynthOptions o;
  const auto topo = na::gen::parse_topology(fields[0]);
  if (!topo) {
    throw std::runtime_error("--synth: unknown topology '" + fields[0] +
                             "' (grid, torus, dag)");
  }
  o.topology = *topo;
  o.modules = na::parse_int_arg(fields[1], "--synth module count", 1);
  auto parse_full = [](const std::string& field, auto& value, const char* what) {
    const char* last = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), last, value);
    if (field.empty() || ec != std::errc{} || ptr != last) {
      throw std::runtime_error("bad value '" + field + "' for --synth " + what);
    }
  };
  if (fields.size() > 2) parse_full(fields[2], o.seed, "seed");
  if (fields.size() > 3) {
    parse_full(fields[3], o.fanout_mean, "fanout");
    if (!std::isfinite(o.fanout_mean)) {
      throw std::runtime_error("bad value '" + fields[3] + "' for --synth fanout");
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;
  std::vector<std::string> args;
  std::string out_prefix = "diagram";
  std::string synth_spec;
  std::vector<std::string> lib_files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_prefix = argv[++i];
    } else if (a == "-lib" && i + 1 < argc) {
      lib_files.push_back(argv[++i]);
    } else if (a == "--synth" && i + 1 < argc) {
      synth_spec = argv[++i];
    } else {
      args.push_back(a);
    }
  }

  GeneratorOptions opt;
  obs::ObsOptions obs;
  std::vector<std::string> files;
  gen::SynthOptions synth;
  try {
    files = parse_generator_args(args, opt, &obs);
    if (!synth_spec.empty()) synth = parse_synth_spec(synth_spec);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (synth_spec.empty() && files.size() < 2) {
    std::cerr << "usage: net2art <call-file> <netlist-file> [io-file] [-o prefix]"
              << " [-lib module-file]...\n"
              << "       net2art --synth <topology>:<modules>[:<seed>[:<fanout>]]"
              << " (topology: grid, torus, dag)\n"
              << generator_usage() << '\n';
    return 2;
  }

  try {
    ModuleLibrary lib = ModuleLibrary::standard_cells();
    for (const std::string& f : lib_files) {
      lib.add(parse_module_description(read_file(f)));
    }
    Network net;
    if (!synth_spec.empty()) {
      net = gen::synth_network(synth);
    } else {
      const std::string io = files.size() > 2 ? read_file(files[2]) : std::string{};
      net = parse_network(lib, read_file(files[0]), io, read_file(files[1]));
    }

    obs::obs_begin(obs);
    GeneratorResult result;
    const Diagram dia = generate_diagram(net, opt, &result);
    std::cout << result.stats.summary() << '\n';
    for (NetId n : result.route.failed_nets) {
      std::cout << "warning: net '" << net.net(n).name << "' unroutable\n";
    }
    for (const auto& p : validate_diagram(dia)) std::cout << "PROBLEM: " << p << '\n';

    write_file(out_prefix + ".svg", to_svg(dia));
    write_file(out_prefix + ".txt", to_ascii(dia));
    write_file(out_prefix + ".es", to_escher_diagram(dia, out_prefix));
    write_file(out_prefix + ".eps", to_eps(dia));
    std::cout << "wrote " << out_prefix << ".svg/.txt/.es/.eps\n";

    obs::MetricsRegistry reg;
    obs::absorb(reg, result);
    if (!obs::obs_finish(obs, reg)) return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
