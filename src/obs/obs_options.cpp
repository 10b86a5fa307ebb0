#include "obs/obs_options.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/trace.hpp"

namespace na::obs {

ObsOptions::Stats parse_stats_mode(const std::string& value) {
  if (value == "text") return ObsOptions::Stats::kText;
  if (value == "json") return ObsOptions::Stats::kJson;
  if (value == "off") return ObsOptions::Stats::kOff;
  throw std::runtime_error("bad value '" + value +
                           "' for --stats (use text, json or off)");
}

bool take_obs_flag(const std::vector<std::string>& args, size_t& i,
                   ObsOptions& opt) {
  const std::string& a = args[i];
  if (a != "--trace" && a != "--stats") return false;
  if (i + 1 == args.size()) throw std::runtime_error("missing value after " + a);
  const std::string& value = args[++i];
  if (a == "--trace") {
    opt.trace_path = value;
  } else {
    opt.stats = parse_stats_mode(value);
  }
  return true;
}

std::vector<std::string> parse_obs_args(const std::vector<std::string>& args,
                                        ObsOptions& opt) {
  std::vector<std::string> positional;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (take_obs_flag(args, i, opt)) continue;
    if (a.starts_with('-')) {
      throw std::runtime_error("unknown flag '" + a + "'");
    } else {
      positional.push_back(a);
    }
  }
  return positional;
}

namespace {

/// obs_begin turned the recorder on: obs_finish rolls up only then, so a
/// daemon's flight rings stay out of its exit stats.
bool g_began = false;

}  // namespace

void obs_begin(const ObsOptions& opt) {
  if (opt.trace_path.empty() && opt.stats == ObsOptions::Stats::kOff) return;
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
      std::fprintf(stderr, "na[obs] cannot write trace file '%s'\n",
                   opt.trace_path.c_str());
      ok = false;
    }
  }
  if (opt.stats == ObsOptions::Stats::kOff) return ok;
  // Emit a copy extended with the span rollup.
  MetricsRegistry out = reg;
  if (g_began) absorb(out, span_rollup(trace_events()));
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
