#include "obs/obs_options.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/diag.hpp"
#include "obs/trace.hpp"

namespace na::obs {

ObsOptions::Stats parse_stats_mode(const std::string& value) {
  if (value == "text") return ObsOptions::Stats::kText;
  if (value == "json") return ObsOptions::Stats::kJson;
  if (value == "off") return ObsOptions::Stats::kOff;
  throw std::runtime_error("bad value '" + value +
                           "' for --stats (use text, json or off)");
}

namespace {

/// obs_begin turned the recorder on: obs_finish rolls up only then, so a
/// daemon's flight rings stay out of its exit stats.
bool g_began = false;

}  // namespace

void obs_begin(const ObsOptions& opt) {
  if (opt.trace_path.empty() && opt.stats == ObsOptions::Stats::kOff) return;
  if (!opt.trace_path.empty() && !trace_compiled_in()) {
    diagf("obs", kDiagDefaultLimit,
          "--trace requested but tracing was compiled out (NA_TRACE=OFF); "
          "the trace file will contain no events");
  }
  trace_enable();
  g_began = true;
}

bool obs_finish(const ObsOptions& opt, const MetricsRegistry& reg) {
  bool ok = true;
  if (g_began) trace_disable();
  if (!opt.trace_path.empty()) {
    if (trace_write(opt.trace_path)) {
      std::fprintf(stderr, "na[obs] wrote trace %s\n", opt.trace_path.c_str());
    } else {
      diagf("obs", kDiagDefaultLimit, "cannot write trace file '%s'",
            opt.trace_path.c_str());
      ok = false;
    }
  }
  if (opt.stats == ObsOptions::Stats::kOff) return ok;
  // Emit a copy extended with the span rollup and the diagnostics
  // counters: categories that fired show up as diag.lines.<cat>/
  // diag.suppressed.<cat>, so rate-limited warnings stay visible.
  MetricsRegistry out = reg;
  if (g_began) absorb(out, span_rollup(trace_events()));
  diag_absorb(out);
  switch (opt.stats) {
    case ObsOptions::Stats::kOff:
      break;
    case ObsOptions::Stats::kText:
      std::fputs(out.to_text().c_str(), stdout);
      break;
    case ObsOptions::Stats::kJson:
      std::fputs(out.to_json().c_str(), stdout);
      break;
  }
  return ok;
}

const char* obs_usage() {
  return "--trace <file (Chrome trace-event JSON)> --stats <text|json|off>";
}

}  // namespace na::obs
