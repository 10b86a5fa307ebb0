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

/// Enables the trace recorder when a trace or stats were requested.  Warns
/// on stderr (and keeps going) when a trace was requested but tracing was
/// compiled out (NA_TRACE=OFF).
void obs_begin(const ObsOptions& opt);

/// Writes the trace file (when requested) and emits the registry to
/// stdout in the chosen format, with the span rollup of what obs_begin
/// recorded (span.<name>.*) and the diag.lines.* / diag.suppressed.*
/// counters of every diagnostic category that fired.  Returns false when
/// the trace file could not be written (after printing a diagnostic).
bool obs_finish(const ObsOptions& opt, const MetricsRegistry& reg);

/// Usage snippet for the examples' help text.
const char* obs_usage();

}  // namespace na::obs
