// Service tier — na_serve throughput and edit latency over loopback.
//
// Starts an in-process serve::Server (event-loop connection plane, 4 I/O
// threads) on an ephemeral port and drives it with 1, 4, 16, 64 and 256
// concurrent sessions (one BlockingClient per session, one thread per
// client).  Every client opens a "chain" session, applies a fixed number
// of single-module edits (each now a cheap composed netlist step — regen
// is deferred), and ends with a timed get: the observation point that
// flushes the whole run through one composed regen.  Reports requests/sec,
// p50/p99 edit latency, the flush (get) latency, and the multi-edit regen
// counters per concurrency level — the numbers the README's service
// walkthrough quotes.
//
// NA_SERVE_BENCH_EDITS caps the per-session edit count and
// NA_SERVE_BENCH_MAX_SESSIONS drops the top concurrency levels (the
// ctest `serve` smoke runs with 4 edits and a 64-session cap so the
// default suite stays fast; the 256-connection row is bench-only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/histogram.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace na;
using namespace na::bench;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Quantile in milliseconds off a histogram snapshot.  Same estimator the
/// daemon's `metrics` op uses (obs::Histogram, microsecond buckets), so
/// bench-side and server-side p50/p99 agree to the bucket width.
double quantile_ms(const obs::HistogramData& data, double q) {
  return static_cast<double>(data.quantile(q)) / 1000.0;
}

std::string edit_line(const std::string& session, int i) {
  return R"({"op":"edit","session":")" + session + R"(","edits":[)" +
         R"({"kind":"add_module","name":"mod)" + std::to_string(i) +
         R"(","template":"","w":4,"h":3}]})";
}

/// Integer value of a metric inside a metrics response ("key":value).
long long metric_value(const std::string& metrics, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = metrics.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoll(metrics.c_str() + at + needle.size(), nullptr, 10);
}

/// Cumulative multi-edit regen counters, read off a metrics round trip.
struct BatchSnapshot {
  long long regens = 0, composed = 0;

  static BatchSnapshot read(serve::BlockingClient& c) {
    const std::string metrics = c.request(R"({"op":"metrics"})");
    BatchSnapshot s;
    s.regens = metric_value(metrics, "serve.batch.regens");
    s.composed = metric_value(metrics, "serve.batch.composed");
    return s;
  }
};

struct LevelResult {
  double wall_ms = 0;       ///< open-to-close wall clock of the whole level
  long long requests = 0;   ///< edit requests completed across all sessions
  double p50_ms = 0;
  double p99_ms = 0;
  double flush_p50_ms = 0;  ///< final get per session: pays the composed regen
};

/// Runs `sessions` concurrent clients x `edits` edits each against `port`.
/// Each session ends with a timed get — the observation point where the
/// deferred edits flush through one composed regen — so the level's work
/// includes the geometry it produced, not just the netlist queuing.
LevelResult run_level(int port, int sessions, int edits) {
  // Wait-free shared histograms instead of per-session sample vectors:
  // every client thread records straight into the same counters the
  // daemon uses for serve.lat.edit, at fixed memory per level.
  obs::Histogram lat;
  obs::Histogram flush;
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([port, s, edits, &lat, &flush] {
      serve::BlockingClient c;
      std::string error;
      if (!c.connect("127.0.0.1", port, &error)) {
        std::fprintf(stderr, "connect failed: %s\n", error.c_str());
        return;
      }
      const std::string name = "bench" + std::to_string(s);
      c.request(R"({"op":"open","session":")" + name + R"(","design":"chain"})");
      for (int i = 0; i < edits; ++i) {
        const auto e0 = Clock::now();
        const std::string r = c.request(edit_line(name, i));
        lat.record_ms(ms_since(e0));
        if (r.rfind(R"({"ok":true)", 0) != 0) {
          std::fprintf(stderr, "edit failed: %s\n",
                       r.empty() ? ("transport: " + c.last_error()).c_str()
                                 : r.c_str());
          return;
        }
      }
      const auto g0 = Clock::now();
      c.request(R"({"op":"get","session":")" + name + R"("})");
      flush.record_ms(ms_since(g0));
      c.request(R"({"op":"close","session":")" + name + R"("})");
    });
  }
  for (std::thread& t : threads) t.join();

  LevelResult r;
  r.wall_ms = ms_since(t0);
  const obs::HistogramData lat_data = lat.snapshot();
  const obs::HistogramData flush_data = flush.snapshot();
  r.requests = lat_data.count;
  r.p50_ms = quantile_ms(lat_data, 0.50);
  r.p99_ms = quantile_ms(lat_data, 0.99);
  r.flush_p50_ms = quantile_ms(flush_data, 0.50);
  return r;
}

}  // namespace

int main() {
  int edits = 64;
  if (const char* cap = std::getenv("NA_SERVE_BENCH_EDITS")) {
    edits = std::max(1, std::atoi(cap));
  }
  int max_sessions = 256;
  if (const char* cap = std::getenv("NA_SERVE_BENCH_MAX_SESSIONS")) {
    max_sessions = std::max(1, std::atoi(cap));
  }

  serve::ServerOptions opt;
  opt.port = 0;
  opt.host.threads = 8;
  opt.io_threads = 4;
  serve::Server server(opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 1;
  }
  std::thread runner([&server] { server.run(); });
  const int port = server.port();

  serve::BlockingClient control;
  if (!control.connect("127.0.0.1", port, &error)) {
    std::fprintf(stderr, "control connect failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("na_serve bench: port %d, %d edits/session, io_threads=%d\n\n",
              port, edits, opt.io_threads);
  std::printf("%10s %12s %12s %12s %12s %12s %10s %10s\n", "sessions",
              "req/s", "p50 ms", "p99 ms", "flush p50", "wall ms", "regens",
              "composed");
  for (const int sessions : {1, 4, 16, 64, 256}) {
    if (sessions > max_sessions) {
      std::printf("%10d       (skipped: NA_SERVE_BENCH_MAX_SESSIONS=%d)\n",
                  sessions, max_sessions);
      continue;
    }
    const BatchSnapshot before = BatchSnapshot::read(control);
    const LevelResult r = run_level(port, sessions, edits);
    const BatchSnapshot after = BatchSnapshot::read(control);
    const double rps = r.requests / (r.wall_ms / 1e3);
    const long long regens = after.regens - before.regens;
    const long long composed = after.composed - before.composed;
    std::printf("%10d %12.0f %12.2f %12.2f %12.2f %12.1f %10lld %10lld\n",
                sessions, rps, r.p50_ms, r.p99_ms, r.flush_p50_ms, r.wall_ms,
                regens, composed);
  }

  server.request_stop();
  runner.join();
  return 0;
}
