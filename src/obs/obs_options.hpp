// CLI glue for the observability layer: the `--trace <file>` and
// `--stats <text|json|off>` flags every pipeline binary (pablo, eureka,
// net2art, life_game, regen) accepts, plus the begin/finish pair that
// turns them into an enabled recorder and an emitted registry.
//
//   ObsOptions obs;
//   ...parse flags into obs...
//   obs_begin(obs);                  // records spans when requested
//   ...instrumented work...
//   obs_finish(obs, registry);       // writes the trace, emits the stats
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace na::obs {

struct ObsOptions {
  enum class Stats { kOff, kText, kJson };

  std::string trace_path;  ///< --trace <file>; empty = tracing off
  Stats stats = Stats::kOff;
};

/// Parses a --stats value; throws std::runtime_error naming the flag on
/// anything but "text", "json" or "off".
ObsOptions::Stats parse_stats_mode(const std::string& value);

/// The one matcher of the two flags: when `args[i]` is `--trace` or
/// `--stats`, stores its value into `opt`, moves `i` onto the value and
/// returns true; returns false for any other argument.  Throws
/// std::runtime_error when the value is missing or not a --stats mode.
bool take_obs_flag(const std::vector<std::string>& args, size_t& i,
                   ObsOptions& opt);

/// Parses `--trace <file>` and `--stats <mode>` out of `args` into `opt`
/// and returns the other arguments, for the binaries that take no other
/// flag.  Throws std::runtime_error naming any other flag (an argument
/// that starts with '-') or a flag whose value is missing.
std::vector<std::string> parse_obs_args(const std::vector<std::string>& args,
                                        ObsOptions& opt);

/// Enables the trace recorder when a trace or stats were requested.
void obs_begin(const ObsOptions& opt);

/// Writes the trace file (when requested) and emits the registry to
/// stdout in the chosen format, with the span rollup of what obs_begin
/// recorded (span.<name>.*).  Returns false when the trace file could not
/// be written (after saying so on stderr).
bool obs_finish(const ObsOptions& opt, const MetricsRegistry& reg);

/// Usage snippet for the examples' help text.
const char* obs_usage();

}  // namespace na::obs
