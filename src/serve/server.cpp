#include "serve/server.hpp"

#include <arpa/inet.h>
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace na::serve {

Server::Server(ServerOptions opt) : opt_(std::move(opt)), host_(opt_.host) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::start(std::string* error) {
  // Degenerate options fail loudly at startup, naming the flag, instead
  // of silently misbehaving later (an io_threads of 0 used to be clamped
  // deep inside run(); a max_line of 0 would reject every request; a
  // zero in-flight window would deadlock every pipelined connection).
  const auto reject = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (opt_.host.threads < 1) {
    return reject("bad value for --threads: must be >= 1");
  }
  if (opt_.io_threads < 1) {
    return reject("bad value for --io-threads: must be >= 1");
  }
  if (opt_.max_line == 0) {
    return reject("bad value for --max-line: must be >= 1");
  }
  if (opt_.max_in_flight == 0) {
    return reject("bad value for --max-in-flight: must be >= 1");
  }
  if (opt_.port < 0 || opt_.port > 65535) {
    return reject("bad value for --port: must be in [0, 65535]");
  }
  if (opt_.watchdog_ms < 0) {
    return reject("bad value for --watchdog-ms: must be >= 0 (0 disables)");
  }
  started_at_ = std::chrono::steady_clock::now();

  // A client that disconnects before its response is written must cost us
  // an EPIPE, never a process-killing SIGPIPE.  Belt (signal disposition)
  // and braces (MSG_NOSIGNAL on every send).
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opt_.port));
  if (::inet_pton(AF_INET, opt_.bind_address.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad bind address " + opt_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) {
      *error = "bind " + opt_.bind_address + ":" +
               std::to_string(opt_.port) + ": " + std::strerror(errno);
    }
    return false;
  }
  if (::listen(listen_fd_, 512) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  return true;
}

void Server::run() {
  const int io_threads = opt_.io_threads;  // start() validated >= 1
  EventLoop::Options loop_opt;
  loop_opt.max_line = opt_.max_line;
  loop_opt.max_in_flight = opt_.max_in_flight;
  for (int i = 0; i < io_threads; ++i) {
    EventLoop::Callbacks cb;
    cb.on_line = [this](uint64_t conn, uint64_t ticket, std::string_view line) {
      on_line(conn, ticket, line);
    };
    cb.on_oversized = [this] {
      std::string r = error_response(
          err::kLineTooLong, "request line exceeds " +
                                 std::to_string(opt_.max_line) + " bytes");
      note_request(r);
      return r;
    };
    loops_.push_back(std::make_unique<EventLoop>(i, loop_opt, std::move(cb)));
    std::string error;
    if (!loops_.back()->start(&error)) {
      // epoll/eventfd creation only fails on fd exhaustion; serve with
      // however many loops came up (at least one is required).
      loops_.pop_back();
    }
  }
  // Accept loop with an admin tick (~100ms, or the watchdog interval if
  // shorter): poll() wakes either for a new connection or to re-check the
  // (signal-settable) stop flag, perform any requested flight-recorder
  // dump off the signal handler, and post the due lag probes.
  const int tick_ms = opt_.watchdog_ms > 0 ? std::min(100, opt_.watchdog_ms) : 100;
  auto next_probe = std::chrono::steady_clock::now();
  size_t next_loop = 0;
  while (!stopping() && !loops_.empty()) {
    if (flight_dump_.exchange(false, std::memory_order_relaxed)) {
      dump_flight(opt_.flight_dump_path);
    }
    if (opt_.watchdog_ms > 0 && std::chrono::steady_clock::now() >= next_probe) {
      watchdog_tick();
      next_probe = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opt_.watchdog_ms);
    }
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, tick_ms);
    if (r <= 0) continue;  // timeout, EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard lock(counters_mu_);
      ++counters_.connections;
    }
    loops_[next_loop]->adopt(fd);
    next_loop = (next_loop + 1) % loops_.size();
  }

  // Graceful drain: no new connections and no more lag probes, every
  // loop stops reading (the requests it is serving still complete and
  // flush their responses), join, persist.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& loop : loops_) loop->begin_drain();
  for (auto& loop : loops_) loop->join();

  host_.save_dirty_sessions();
  host_.pool().wait_idle();
}

Server::Counters Server::counters() const {
  std::lock_guard lock(counters_mu_);
  return counters_;
}

void Server::note_request(const std::string& response) {
  const bool is_error = response.rfind(R"({"ok":false)", 0) == 0;
  std::lock_guard lock(counters_mu_);
  ++counters_.requests;
  if (is_error) ++counters_.errors;
}

void Server::respond(uint64_t conn, uint64_t ticket, std::string response,
                     bool close_conn) {
  note_request(response);
  const int loop = EventLoop::loop_index_of(conn);
  if (loop >= 0 && loop < static_cast<int>(loops_.size())) {
    loops_[loop]->complete(conn, ticket, std::move(response), close_conn);
  }
}

void Server::on_line(uint64_t conn, uint64_t ticket, std::string_view line) {
  // Shared side of the flush gate: parsing and inline handling emit trace
  // events too.
  std::shared_lock gate(host_.flush_gate());
  NA_TRACE_SPAN(span, "serve.request");
  Request req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    respond(conn, ticket, error_response(e.code(), e.what()));
    return;
  }
  span.arg("op", to_string(req.op));
  if (stopping() && req.op != Op::kPing) {
    respond(conn, ticket,
            error_response(err::kShuttingDown, "server is shutting down",
                           req.id));
    return;
  }
  dispatch(conn, ticket, std::move(req));
}

obs::Histogram* Server::latency_hist(Op op) {
  switch (op) {
    case Op::kOpen: return &lat_open_;
    case Op::kEdit: return &lat_edit_;
    case Op::kGet: return &lat_get_;
    case Op::kSave: return &lat_save_;
    default: return nullptr;
  }
}

void Server::dispatch(uint64_t conn, uint64_t ticket, Request req) {
  const Op op = req.op;
  const long long id = req.id;
  // Session ops answer through this completion, from a pool worker.  The
  // dispatch-to-completion time is the op's server-side latency (host
  // queue wait + execution + completion hop) — recorded per op into the
  // serve.lat.* histograms the metrics op reports.
  obs::Histogram* lat = latency_hist(op);
  const auto t0 = std::chrono::steady_clock::now();
  auto done = [this, conn, ticket, op, id, lat, t0](HostResult r) {
    if (lat != nullptr) {
      lat->record(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    if (!r.ok) {
      respond(conn, ticket, error_response(r.error_code, r.message, id));
      return;
    }
    respond(conn, ticket, render_result(op, id, r));
  };
  switch (op) {
    case Op::kPing:
      respond(conn, ticket, render_result(op, id, HostResult{}));
      return;
    case Op::kMetrics:
      respond(conn, ticket, build_metrics_response(id));
      return;
    case Op::kShutdown:
      request_stop();
      respond(conn, ticket, render_result(op, id, HostResult{}),
              /*close_conn=*/true);
      return;
    case Op::kOpen:
    case Op::kEdit:
    case Op::kGet:
    case Op::kSave:
    case Op::kClose:
      host_.submit(std::move(req), std::move(done));
      return;
  }
}

std::string Server::render_result(Op op, long long id, const HostResult& r) {
  obs::JsonWriter w;
  w.begin_object().field("ok", true).field("op", std::string_view(to_string(op)));
  if (id >= 0) w.field("id", id);
  switch (op) {
    case Op::kOpen:
      w.field("seq", r.seq)
          .field("full_regen", r.full_regen)
          .field("nets_rerouted", r.nets_rerouted)
          .field("nets_kept", r.nets_kept);
      break;
    case Op::kEdit:
      // Deliberately free of regen fields: the edit only composed its
      // script into the pending network (regen is deferred to the next
      // observation point), so the response is a pure function of the
      // request sequence — identical however requests batch.
      w.field("seq", r.seq).field("batched", true);
      break;
    case Op::kGet:
      w.field("seq", r.seq)
          .field("flushed_edits", r.flushed_edits)
          .field("payload", std::string_view(r.payload));
      break;
    case Op::kSave:
      w.field("seq", r.seq).field("flushed_edits", r.flushed_edits);
      if (!r.payload.empty()) {  // no state dir: blob travels inline
        w.field("payload", std::string_view(r.payload));
      }
      break;
    default:
      break;
  }
  w.end_object();
  return w.take();
}

void Server::absorb_metrics(obs::MetricsRegistry& reg) const {
  {
    std::lock_guard lock(counters_mu_);
    reg.set("serve.connections", counters_.connections);
    reg.set("serve.requests", counters_.requests);
    reg.set("serve.errors", counters_.errors);
  }
  reg.set_histogram("serve.lat.open", lat_open_.snapshot());
  reg.set_histogram("serve.lat.edit", lat_edit_.snapshot());
  reg.set_histogram("serve.lat.get", lat_get_.snapshot());
  reg.set_histogram("serve.lat.save", lat_save_.snapshot());
  reg.set_histogram("serve.lat.loop_tick", lat_loop_.snapshot());
  host_.absorb_metrics(reg);
  reg.set("serve.peak_rss_bytes", obs::peak_rss_bytes());
  reg.set("serve.uptime_ms",
          static_cast<long long>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - started_at_)
                  .count()));
  if (obs::trace_flight_enabled()) {
    reg.set("serve.flight.capacity",
            static_cast<long long>(obs::trace_flight_capacity()));
    reg.set("serve.flight.dropped",
            static_cast<long long>(obs::trace_flight_dropped()));
  }
}

std::string Server::build_metrics_response(long long id) {
  obs::MetricsRegistry reg;
  absorb_metrics(reg);
  return registry_response(reg, id);
}

bool Server::dump_flight(const std::string& path) {
  if (!obs::trace_flight_enabled()) return false;
  // Exclusive side of the flush gate: no request is mid-record, so the
  // rings are quiescent and the dump is byte-stable (DESIGN §11).
  std::unique_lock gate(host_.flush_gate());
  return obs::trace_flight_dump(path);
}

void Server::watchdog_tick() {
  // Event-loop lag probes: post-to-run delay through each loop's task
  // queue — exactly the wait a cross-thread completion experiences.
  for (auto& loop : loops_) {
    const auto t0 = std::chrono::steady_clock::now();
    loop->post([this, t0] {
      lat_loop_.record(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    });
  }
}

namespace {
std::atomic<Server*> g_signal_server{nullptr};

void stop_on_signal(int) {
  if (Server* s = g_signal_server.load(std::memory_order_relaxed)) {
    s->request_stop();  // one relaxed atomic store: async-signal-safe
  }
}

void dump_on_signal(int) {
  if (Server* s = g_signal_server.load(std::memory_order_relaxed)) {
    s->request_flight_dump();  // flag only; the accept tick dumps
  }
}
}  // namespace

void install_signal_handlers(Server& server) {
  g_signal_server.store(&server, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = stop_on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  struct sigaction dump{};
  dump.sa_handler = dump_on_signal;
  sigemptyset(&dump.sa_mask);
  ::sigaction(SIGUSR1, &dump, nullptr);
}

}  // namespace na::serve
