#include "core/options.hpp"

#include <cctype>
#include <stdexcept>

#include "netlist/text_io.hpp"

namespace na {

int parse_int_arg(const std::string& value, const std::string& flag,
                  int min_value) {
  try {
    return static_cast<int>(
        parse_int(value, min_value, std::numeric_limits<int>::max()));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("bad value '" + value + "' for " + flag + " (" +
                             e.what() + ")");
  }
}

std::vector<std::string> parse_generator_args(const std::vector<std::string>& args,
                                              GeneratorOptions& opt,
                                              obs::ObsOptions* obs) {
  std::vector<std::string> positional;
  // Size, spacing and margin flags must be non-negative; a stray "-5"
  // would otherwise silently disable partitioning or invert a margin.
  auto next_int = [&](size_t& i, const std::string& flag, int min_value = 0) {
    if (i + 1 >= args.size()) {
      throw std::runtime_error("missing value after " + flag);
    }
    return parse_int_arg(args[++i], flag, min_value);
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.empty() || a[0] != '-') {
      positional.push_back(a);
      continue;
    }
    if (a == "-p") {
      opt.placer.max_part_size = next_int(i, a);
    } else if (a == "-b") {
      opt.placer.max_box_size = next_int(i, a);
    } else if (a == "-c") {
      opt.placer.max_connections = next_int(i, a);
    } else if (a == "-e") {
      opt.placer.partition_spacing = next_int(i, a);
    } else if (a == "-i") {
      opt.placer.box_spacing = next_int(i, a);
    } else if (a == "-s" && i + 1 < args.size() && !args[i + 1].empty() &&
               (std::isdigit(args[i + 1][0]) != 0)) {
      opt.placer.module_spacing = next_int(i, a);
    } else if (a == "-s") {
      // EUREKA -s: prefer wire length over crossing count among min-bend paths.
      opt.router.order = CostOrder::BendsLengthCrossings;
    } else if (a == "-noclaim") {
      opt.router.use_claimpoints = false;
    } else if (a == "-noretry") {
      opt.router.retry_failed = false;
    } else if (a == "-L") {
      opt.router.engine = Engine::Lee;
    } else if (a == "-H") {
      opt.router.engine = Engine::Hightower;
    } else if (a == "-S") {
      opt.router.engine = Engine::SegmentExpansion;
    } else if (a == "-m") {
      opt.router.margin = next_int(i, a);
    } else if (obs != nullptr && obs::take_obs_flag(args, i, *obs)) {
      // --trace / --stats, matched by the obs layer's one parser.
    } else if (a == "-u" || a == "-d" || a == "-l" || a == "-r") {
      // Border-pinning flags of Appendix F; the grid always reserves a
      // margin on all four sides, so these are accepted no-ops.
    } else {
      throw std::runtime_error("unknown flag '" + a + "'\n" + generator_usage());
    }
  }
  return positional;
}

std::string generator_usage() {
  return "options: -p <part-size> -b <box-size> -c <max-conns> -e <part-space>\n"
         "         -i <box-space> -s <module-space|length-first> -m <margin>\n"
         "         -L (Lee) -H (Hightower) -S (segment expansion) -noclaim\n"
         "         -noretry -u -d -l -r\n"
         "         " +
         std::string(obs::obs_usage());
}

}  // namespace na
