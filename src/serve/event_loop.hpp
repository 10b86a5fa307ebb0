// EventLoop — one epoll-driven I/O thread of the na_serve connection
// plane.  The server runs a small fixed set of these; every accepted
// socket is pinned to exactly one loop, and all of a connection's state
// (read buffer, parsed-line queue, response reordering window, write
// buffer) is touched only on its loop thread.  Cross-thread entry points
// (adopt, complete, begin_drain) post closures to the loop's task queue
// and wake it through an eventfd — the only shared state is that queue.
//
// Readiness model: sockets are non-blocking and level-triggered.  EPOLLIN
// appends to a per-connection buffer, splits complete lines (1 MiB cap
// with discard-to-newline recovery, as in the blocking server), and
// dispatches each line with a per-connection ticket.  The handler answers
// asynchronously via complete(conn, ticket, response) from any thread;
// responses are reordered by ticket so the wire order always equals the
// request order, however the session jobs finish.  Writes go through a
// per-connection buffer drained on EPOLLOUT: a slow reader accumulates
// bytes in its own buffer and — past a high-water mark — stops being
// read from (backpressure), instead of blocking an I/O thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace na::serve {

class EventLoop {
 public:
  struct Callbacks {
    /// One complete request line, on the loop thread.  Exactly one
    /// complete(conn, ticket, ...) must eventually follow, from any
    /// thread.  The view is valid only for the duration of the call.
    std::function<void(uint64_t conn, uint64_t ticket, std::string_view line)>
        on_line;
    /// Builds the response line for an oversized request (loop thread).
    std::function<std::string()> on_oversized;
  };

  /// `index` namespaces connection ids: id >> 48 recovers the loop.
  /// `max_line` caps a request line; longer lines get the oversized
  /// response.
  EventLoop(int index, size_t max_line, Callbacks cb);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and spawns the loop thread.
  bool start(std::string* error);

  /// Hands an accepted socket to this loop (thread-safe).  The loop owns
  /// the fd from here on.
  void adopt(int fd);

  /// Delivers the response for a dispatched ticket (thread-safe).  With
  /// `close_conn` the connection is closed once this response — and every
  /// earlier one — has been flushed.  Responses for connections that died
  /// in the meantime are silently dropped.
  void complete(uint64_t conn, uint64_t ticket, std::string response,
                bool close_conn = false);

  /// Starts the graceful drain (thread-safe): stop reading everywhere,
  /// let in-flight requests finish and flush, then close.  The loop
  /// thread exits once no connections remain.
  void begin_drain();

  /// Joins the loop thread (call after begin_drain).
  void join();

  static int loop_index_of(uint64_t conn) {
    return static_cast<int>(conn >> 48);
  }

  /// Enqueues a closure on the loop's task queue and wakes the loop
  /// (thread-safe).  Tasks run on the loop thread in post order, between
  /// epoll waits — the watchdog posts its tick-lag probes through here,
  /// so the measured delay is exactly the time a cross-thread completion
  /// would have waited for the loop.  Call only while the loop runs
  /// (after start(), before join()).
  void post(std::function<void()> fn);

 private:
  struct PendingLine {
    bool oversized = false;
    std::string text;
  };
  struct Conn {
    int fd = -1;
    std::string in;        ///< bytes past the last complete line
    bool discarding = false;
    std::deque<PendingLine> pending;  ///< parsed, not yet dispatched
    uint64_t next_ticket = 0;         ///< assigned at dispatch
    uint64_t next_to_send = 0;        ///< wire order restoration
    std::map<uint64_t, std::pair<std::string, bool>> ready;  ///< resp, close
    size_t in_flight = 0;  ///< dispatched lines awaiting complete()
    std::string out;
    size_t out_off = 0;
    bool want_write = false;
    bool reading = true;    ///< EPOLLIN armed
    bool read_open = true;  ///< false after EOF or drain
    bool close_after_flush = false;
  };

  void thread_main();
  void run_tasks();
  void do_adopt(int fd);
  void handle_readable(uint64_t id, Conn& c);
  void split_lines(Conn& c);
  void pump(uint64_t id, Conn& c);
  void finish(Conn& c, uint64_t ticket, std::string response, bool close_conn);
  /// False when the connection was destroyed by a write error.
  bool try_write(uint64_t id, Conn& c);
  void update_interest(uint64_t id, Conn& c);
  void maybe_close(uint64_t id, Conn& c);
  void destroy(uint64_t id);
  bool past_drain_deadline() const;

  const int index_;
  const size_t max_line_;
  const Callbacks cb_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;

  // Loop-thread-only state.
  std::map<uint64_t, Conn> conns_;
  uint64_t next_id_ = 0;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
};

}  // namespace na::serve
