// The na_serve daemon: TCP listener + an epoll event-loop connection
// plane (serve/event_loop.hpp) on top of SessionHost.
//
// Lifecycle: construct -> start() binds/listens and ignores SIGPIPE (port
// 0 picks an ephemeral port, readable via port()) -> run() blocks serving
// until request_stop().  request_stop() only stores an atomic flag, so it
// is safe to call from a signal handler (install_signal_handlers wires
// SIGINT/SIGTERM to it); the accept loop polls the flag every ~100ms.
//
// Connection plane: run() spawns `io_threads` EventLoops and deals
// accepted sockets to them round-robin.  Request lines are parsed on the
// loop thread; cheap ops (ping, metrics, shutdown, malformed lines) answer
// inline, session ops go to SessionHost::submit (the session's op queue) and
// answer through a completion that posts the response back to the
// connection's loop.  Per-connection tickets keep the wire order equal to
// the request order however the pool jobs finish, and a disconnected peer
// merely drops its responses (MSG_NOSIGNAL everywhere; a dead socket can
// never raise SIGPIPE and kill the daemon).
//
// Graceful shutdown, in order: stop accepting, drain every loop (requests
// in flight finish and their responses flush), join the loop threads, and
// save every dirty session to the state dir.
//
// Tracing a live daemon: the flight recorder keeps each thread's last N
// trace events in a ring, and SIGUSR1 dumps them.  A dump is only byte-
// stable at quiescence, so the host's shared_mutex gates it: every request
// holds it shared while it runs (inline handling on the loop threads, op
// bodies on the pool); the dump takes it exclusive — no request is
// emitting events, and any nested routing work was joined before its op
// body returned.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "serve/event_loop.hpp"
#include "serve/session_host.hpp"

namespace na::serve {

struct ServerOptions {
  /// TCP port; 0 asks the kernel for an ephemeral one (tests do this).
  int port = 0;
  /// Bind address.  Loopback by default: the protocol has no auth.
  std::string bind_address = "127.0.0.1";
  HostOptions host;
  /// Per-request line cap; longer lines answer err::kLineTooLong.
  size_t max_line = kMaxLineBytes;
  /// Event-loop I/O threads of the connection plane.  Two comfortably
  /// saturate the loopback path; the pool does the heavy lifting.
  int io_threads = 2;
  /// Pipelined-request cap per connection (event-loop in-flight window).
  size_t max_in_flight = 128;
  /// Watchdog interval: the accept loop posts a lag probe through each
  /// event loop this often (serve.lat.loop_tick).  0 disables the probes.
  int watchdog_ms = 1000;
  /// Where a SIGUSR1-triggered flight-recorder dump lands.
  std::string flight_dump_path = "na_flight.json";
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens.  False + message on failure (port in use, bad
  /// bind address, degenerate option values — the message names the
  /// offending flag).
  bool start(std::string* error);

  /// The bound port (after start); useful with port 0.
  int port() const { return port_; }

  /// Serves until request_stop(), then drains and saves.  Call once.
  void run();

  /// Async-signal-safe stop request.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  SessionHost& host() { return host_; }

  /// Connection/request counters (for the metrics op and tests).  Every
  /// response the daemon produces passes through exactly one counting
  /// point (note_request), so requests/errors can never drift from the
  /// traffic actually answered.
  struct Counters {
    long long connections = 0;
    long long requests = 0;
    long long errors = 0;
  };
  Counters counters() const;

  /// Full telemetry registry — what the `metrics` op and the daemon's
  /// exit-stats block report: connection/request counters, host + regen
  /// totals, pool queue depth, peak RSS and uptime, the flight-recorder
  /// counters, and every latency histogram (serve.lat.open/edit/get/save
  /// from dispatch, serve.lat.flush and serve.pool.queue_wait from the
  /// host, serve.lat.loop_tick from the watchdog probes).  One absorb, so
  /// the wire and the shutdown report can never drift.
  void absorb_metrics(obs::MetricsRegistry& reg) const;

  /// Async-signal-safe flight-dump request (the SIGUSR1 handler calls
  /// this); the accept loop's ~100ms tick performs the dump.
  void request_flight_dump() {
    flight_dump_.store(true, std::memory_order_relaxed);
  }

  /// Dumps the flight-recorder rings to `path` under the exclusive side
  /// of the flush gate (recorder quiescent, dump byte-stable).  False
  /// when the flight recorder is off or the file cannot be written.
  bool dump_flight(const std::string& path);

 private:
  /// One request line, on a loop thread: parse, answer inline ops,
  /// hand session ops to SessionHost::submit.
  void on_line(uint64_t conn, uint64_t ticket, std::string_view line);
  void dispatch(uint64_t conn, uint64_t ticket, Request req);
  /// The single counting point + response delivery.
  void respond(uint64_t conn, uint64_t ticket, std::string response,
               bool close_conn = false);
  void note_request(const std::string& response);
  /// Formats the success response for a host result (op-specific fields).
  std::string render_result(Op op, long long id, const HostResult& r);
  std::string build_metrics_response(long long id);
  /// The per-op latency histogram for `op`; nullptr for the inline ops
  /// (ping/metrics/shutdown) which are not worth a series.
  obs::Histogram* latency_hist(Op op);
  /// Posts one lag probe through every event loop.
  void watchdog_tick();

  ServerOptions opt_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> flight_dump_{false};
  std::chrono::steady_clock::time_point started_at_{};

  std::vector<std::unique_ptr<EventLoop>> loops_;

  mutable std::mutex counters_mu_;
  Counters counters_;

  /// Dispatch-to-completion time per session op, µs (the server-side
  /// latency a client experiences minus its socket).  Wait-free recording
  /// from pool completions; snapshots taken by the metrics op.
  obs::Histogram lat_open_;
  obs::Histogram lat_edit_;
  obs::Histogram lat_get_;
  obs::Histogram lat_save_;
  /// post-to-run delay of watchdog probes through the event loops, µs —
  /// how long a completion currently waits for its loop thread.
  obs::Histogram lat_loop_;


  /// Declared last: the host's pool (whose jobs post completions into the
  /// loops above) must be torn down before the loops are.
  SessionHost host_;
};

/// Routes SIGINT and SIGTERM to server.request_stop(), and SIGUSR1 to
/// server.request_flight_dump() (kill -USR1 the daemon to get a flight-
/// recorder dump without stopping it).  Each handler only touches an
/// atomic flag.  One server at a time.
void install_signal_handlers(Server& server);

}  // namespace na::serve
