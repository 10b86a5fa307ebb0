#include "serve/event_loop.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace na::serve {
namespace {

/// Dispatched-but-unanswered requests per connection; further parsed lines
/// wait in the pending queue.
constexpr size_t kMaxInFlight = 128;
/// Parsed-line backlog per connection before the socket stops being read.
constexpr size_t kMaxPendingLines = 256;
/// Write-buffer size above which the connection stops being read until
/// the peer drains it.
constexpr size_t kWriteHighWater = 256u << 10;
/// During drain, how long a connection may sit on unflushed output (with
/// no request in flight) before it is force-closed.
constexpr std::chrono::milliseconds kDrainGrace{5000};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

EventLoop::EventLoop(int index, size_t max_line, Callbacks cb)
    : index_(index), max_line_(max_line), cb_(std::move(cb)) {}

EventLoop::~EventLoop() {
  if (thread_.joinable()) {
    begin_drain();
    thread_.join();
  }
  for (auto& [id, c] : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::start(std::string* error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = ~uint64_t{0};  // the wakeup fd's sentinel id
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { thread_main(); });
  return true;
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard lock(tasks_mu_);
    tasks_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_tasks() {
  for (;;) {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard lock(tasks_mu_);
      if (tasks_.empty()) return;
      batch.swap(tasks_);
    }
    for (auto& fn : batch) fn();
  }
}

void EventLoop::adopt(int fd) {
  post([this, fd] { do_adopt(fd); });
}

void EventLoop::complete(uint64_t conn, uint64_t ticket, std::string response,
                         bool close_conn) {
  post([this, conn, ticket, r = std::move(response), close_conn]() mutable {
    const auto it = conns_.find(conn);
    if (it == conns_.end()) return;  // connection died; drop the response
    Conn& c = it->second;
    if (c.in_flight > 0) --c.in_flight;
    finish(c, ticket, std::move(r), close_conn);
    if (!try_write(conn, c)) return;
    pump(conn, c);
    const auto again = conns_.find(conn);
    if (again == conns_.end()) return;
    update_interest(conn, again->second);
    maybe_close(conn, again->second);
  });
}

void EventLoop::begin_drain() {
  post([this] {
    if (draining_) return;
    draining_ = true;
    drain_deadline_ = std::chrono::steady_clock::now() + kDrainGrace;
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (auto& [id, c] : conns_) ids.push_back(id);
    for (const uint64_t id : ids) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      c.read_open = false;
      c.reading = false;
      c.pending.clear();  // undispatched lines are dropped, like SHUT_RD
      if (!try_write(id, c)) continue;
      const auto again = conns_.find(id);
      if (again == conns_.end()) continue;
      update_interest(id, again->second);
      maybe_close(id, again->second);
    }
  });
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::past_drain_deadline() const {
  return draining_ && std::chrono::steady_clock::now() >= drain_deadline_;
}

void EventLoop::thread_main() {
  std::vector<epoll_event> events(128);
  for (;;) {
    run_tasks();
    if (draining_) {
      if (conns_.empty()) return;
      if (past_drain_deadline()) {
        // Flush stalled: give up on peers that stopped reading.  Requests
        // still in flight keep their connection until they complete.
        std::vector<uint64_t> stuck;
        for (auto& [id, c] : conns_) {
          if (c.in_flight == 0) stuck.push_back(id);
        }
        for (const uint64_t id : stuck) destroy(id);
        if (conns_.empty()) return;
      }
    }
    const int timeout_ms = draining_ ? 100 : 1000;
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: nothing left to serve
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == ~uint64_t{0}) {
        uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // destroyed earlier this batch
      Conn& c = it->second;
      if ((events[i].events & EPOLLERR) != 0) {
        destroy(id);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!try_write(id, c)) continue;
        update_interest(id, c);
        maybe_close(id, c);
        if (conns_.find(id) == conns_.end()) continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) != 0) {
        handle_readable(id, c);
      }
    }
  }
}

void EventLoop::do_adopt(int fd) {
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (draining_) {  // raced with shutdown: refuse politely
    ::close(fd);
    return;
  }
  const uint64_t id =
      (static_cast<uint64_t>(index_) << 48) | (++next_id_ & 0xffffffffffffULL);
  Conn& c = conns_[id];
  c.fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void EventLoop::handle_readable(uint64_t id, Conn& c) {
  char chunk[65536];
  int budget = 8;  // bounded per event so one firehose can't starve peers
  while (c.reading && budget-- > 0) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      c.in.append(chunk, static_cast<size_t>(n));
      split_lines(c);
      if (c.pending.size() > kMaxPendingLines ||
          c.out.size() - c.out_off > kWriteHighWater) {
        c.reading = false;  // backpressure: stop reading until drained
      }
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {  // EOF: peer half-closed; finish what was dispatched
      c.read_open = false;
      c.reading = false;
      break;
    }
    if (errno == EINTR) {
      ++budget;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(id);
    return;
  }
  pump(id, c);
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (!try_write(id, it->second)) return;
  const auto again = conns_.find(id);
  if (again == conns_.end()) return;
  update_interest(id, again->second);
  maybe_close(id, again->second);
}

void EventLoop::split_lines(Conn& c) {
  size_t start = 0;
  for (;;) {
    const size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(c.in.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    if (c.discarding) {  // tail of an oversized line: swallow silently
      c.discarding = false;
      continue;
    }
    if (line.empty()) continue;
    PendingLine p;
    if (line.size() > max_line_) {
      p.oversized = true;  // complete but over the cap: reject in order
    } else {
      p.text.assign(line);
    }
    c.pending.push_back(std::move(p));
  }
  c.in.erase(0, start);

  if (!c.discarding && c.in.size() > max_line_) {
    // No newline within the cap: queue the rejection now, then discard
    // the rest of the line as it streams in.  The connection survives.
    PendingLine p;
    p.oversized = true;
    c.pending.push_back(std::move(p));
    c.discarding = true;
    c.in.clear();
  }
}

void EventLoop::pump(uint64_t id, Conn& c) {
  while (!c.pending.empty() && !c.close_after_flush &&
         c.in_flight < kMaxInFlight) {
    PendingLine p = std::move(c.pending.front());
    c.pending.pop_front();
    const uint64_t ticket = c.next_ticket++;
    if (p.oversized) {
      finish(c, ticket, cb_.on_oversized(), false);
      continue;
    }
    ++c.in_flight;
    cb_.on_line(id, ticket, p.text);
  }
  if (!c.reading && c.read_open && c.pending.size() <= kMaxPendingLines / 2 &&
      c.out.size() - c.out_off <= kWriteHighWater / 2) {
    c.reading = true;  // backpressure released
  }
}

void EventLoop::finish(Conn& c, uint64_t ticket, std::string response,
                       bool close_conn) {
  c.ready.emplace(ticket, std::make_pair(std::move(response), close_conn));
  for (auto it = c.ready.find(c.next_to_send); it != c.ready.end();
       it = c.ready.find(c.next_to_send)) {
    c.out += it->second.first;
    c.out.push_back('\n');
    if (it->second.second) {
      c.close_after_flush = true;
      c.pending.clear();
      c.reading = false;
      c.read_open = false;
    }
    c.ready.erase(it);
    ++c.next_to_send;
  }
}

bool EventLoop::try_write(uint64_t id, Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c.want_write = true;
      if (c.out_off > (64u << 10)) {  // keep the stalled buffer compact
        c.out.erase(0, c.out_off);
        c.out_off = 0;
      }
      return true;
    }
    destroy(id);  // EPIPE / ECONNRESET / ...: the peer is gone
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  c.want_write = false;
  return true;
}

void EventLoop::update_interest(uint64_t id, Conn& c) {
  epoll_event ev{};
  ev.events = (c.reading ? EPOLLIN : 0u) | (c.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void EventLoop::maybe_close(uint64_t id, Conn& c) {
  const bool flushed = c.out_off >= c.out.size();
  if (c.close_after_flush && flushed && c.in_flight == 0) {
    destroy(id);
    return;
  }
  if (!c.read_open && c.in_flight == 0 && c.pending.empty() && flushed &&
      c.ready.empty()) {
    destroy(id);
    return;
  }
  if (past_drain_deadline() && c.in_flight == 0) destroy(id);
}

void EventLoop::destroy(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
}

}  // namespace na::serve
