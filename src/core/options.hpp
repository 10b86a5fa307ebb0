// Command-line option parsing in the dialect of the historical programs
// (Appendix E: PABLO, Appendix F: EUREKA), so the examples can be driven
// exactly like the 1989 tools:
//
//   pablo  -p <int> -b <int> -c <int> -e <int> -i <int> -s <int> [-g]
//   eureka [-u -d -l -r] [-s] [-L|-H]   (engine letters are an extension)
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "obs/obs_options.hpp"

namespace na {

/// Parses PABLO-style placement flags into `opt.placer` and EUREKA-style
/// routing flags into `opt.router`.  Unknown flags and malformed values
/// raise std::runtime_error naming the flag (e.g. "bad value 'foo' for
/// -p"); size, spacing and margin flags reject negative values.  Returns
/// the non-flag (positional) arguments.
///
/// When `obs` is given, the observability flags `--trace <file>` and
/// `--stats <text|json|off>` are accepted too (rejected as unknown
/// otherwise) — pass the result to obs::obs_begin/obs_finish.
std::vector<std::string> parse_generator_args(const std::vector<std::string>& args,
                                              GeneratorOptions& opt,
                                              obs::ObsOptions* obs = nullptr);

/// A flag value under parse_int's grammar (text_io.hpp), at least
/// `min_value`.  Throws std::runtime_error with a one-line diagnostic
/// naming `flag` and the offending text.
int parse_int_arg(const std::string& value, const std::string& flag,
                  int min_value = std::numeric_limits<int>::min());

/// One-line usage text for the examples.
std::string generator_usage();

}  // namespace na
