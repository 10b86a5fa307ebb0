// na_serve — the schematic-as-a-service daemon (DESIGN §10).
//
// Serves line-delimited JSON over TCP: many named RegenSessions, edits
// dispatched onto one worker pool, per-session ordering, graceful
// SIGINT/SIGTERM shutdown that saves dirty sessions.  Tracing is the
// flight recorder: each thread keeps its last N events, and SIGUSR1
// dumps them.
//
//   na_serve --port 0 --state-dir /tmp/na-state --flight-recorder 4096
//
// With --port 0 the kernel picks the port; --port-file writes the bound
// port so scripts (examples/serve_demo.sh) can find it.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs_options.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port N          TCP port to listen on (0 = ephemeral; default 0)\n"
      "  --port-file PATH  write the bound port to PATH (for scripts)\n"
      "  --threads N       edit-dispatch pool workers (default 4)\n"
      "  --io-threads N    event-loop I/O threads of the connection plane\n"
      "                    (default 2)\n"
      "  --state-dir PATH  session save/restore directory (default: off)\n"
      "  --max-line N      request line cap in bytes (default 1 MiB)\n"
      "  --max-in-flight N pipelined-request cap per connection "
      "(default 128)\n"
      "  --flight-recorder N  keep tracing always on in bounded memory:\n"
      "                    every thread retains its last N trace events in\n"
      "                    a ring; SIGUSR1 dumps them (see --flight-dump)\n"
      "  --flight-dump PATH  where a SIGUSR1 dump lands (default\n"
      "                    na_flight.json)\n"
      "  --watchdog-ms N   event-loop lag probe interval (0 = off;\n"
      "                    default 1000)\n"
      "  --stats text|json|off  emit service counters on exit\n"
      "                    (default off)\n",
      argv0);
}

bool int_arg(const char* value, const char* flag, long lo, long hi, long* out) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "na_serve: bad value for %s: '%s'\n", flag, value);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace na;

  serve::ServerOptions opt;
  std::string port_file;
  obs::ObsOptions::Stats stats = obs::ObsOptions::Stats::kOff;
  long flight_events = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "na_serve: %s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    }
    long v = 0;
    if (flag == "--port") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--port", 0, 65535, &v)) return 2;
      opt.port = static_cast<int>(v);
    } else if (flag == "--port-file") {
      const char* s = next();
      if (s == nullptr) return 2;
      port_file = s;
    } else if (flag == "--threads") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--threads", 1, 256, &v)) return 2;
      opt.host.threads = static_cast<int>(v);
    } else if (flag == "--io-threads") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--io-threads", 1, 64, &v)) return 2;
      opt.io_threads = static_cast<int>(v);
    } else if (flag == "--state-dir") {
      const char* s = next();
      if (s == nullptr) return 2;
      opt.host.state_dir = s;
    } else if (flag == "--max-line") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--max-line", 64, 1L << 28, &v)) return 2;
      opt.max_line = static_cast<size_t>(v);
    } else if (flag == "--max-in-flight") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--max-in-flight", 1, 1L << 20, &v)) {
        return 2;
      }
      opt.max_in_flight = static_cast<size_t>(v);
    } else if (flag == "--flight-recorder") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--flight-recorder", 16, 1L << 24, &v)) {
        return 2;
      }
      flight_events = v;
    } else if (flag == "--flight-dump") {
      const char* s = next();
      if (s == nullptr) return 2;
      opt.flight_dump_path = s;
    } else if (flag == "--watchdog-ms") {
      const char* s = next();
      if (s == nullptr || !int_arg(s, "--watchdog-ms", 0, 1L << 24, &v)) {
        return 2;
      }
      opt.watchdog_ms = static_cast<int>(v);
    } else if (flag == "--stats") {
      const char* s = next();
      if (s == nullptr) return 2;
      try {
        stats = obs::parse_stats_mode(s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "na_serve: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "na_serve: unknown flag '%s'\n", flag.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // Flight-recorder mode: recorder on, every thread buffer bounded.
  if (flight_events > 0) {
    if (!obs::trace_compiled_in()) {
      std::fprintf(stderr,
                   "na_serve: --flight-recorder requested but tracing was "
                   "compiled out (NA_TRACE=OFF); continuing without\n");
    } else {
      obs::trace_flight_enable(static_cast<size_t>(flight_events));
      obs::trace_enable();
    }
  }

  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "na_serve: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "na_serve: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  serve::install_signal_handlers(server);
  std::fprintf(stderr,
               "na_serve: listening on %s:%d (threads=%d, io-threads=%d%s%s)\n",
               opt.bind_address.c_str(), server.port(), opt.host.threads,
               opt.io_threads,
               opt.host.state_dir.empty() ? "" : ", state-dir=",
               opt.host.state_dir.c_str());

  server.run();  // blocks until SIGINT/SIGTERM or a shutdown request

  std::fprintf(stderr, "na_serve: stopped after %lld requests\n",
               server.counters().requests);
  if (stats != obs::ObsOptions::Stats::kOff) {
    // Exit stats are the wire `metrics` registry (histograms, gauges and
    // all), emitted by the same obs_finish the pipeline CLIs use, so the
    // shutdown report can never drift from what the metrics op served.
    obs::MetricsRegistry reg;
    server.absorb_metrics(reg);
    obs::obs_finish(obs::ObsOptions{{}, stats}, reg);
  }
  return 0;
}
