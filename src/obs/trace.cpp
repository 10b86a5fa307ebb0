#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <tuple>

#include "obs/metrics.hpp"

namespace na::obs {
namespace {

/// One recorded event.  Fixed-size — the thread buffers are plain vectors
/// of these, so recording is a push_back and nothing else.
struct Event {
  const char* name;
  std::uint64_t ts;
  std::uint64_t dur;
  char ph;  // 'X' or 'i'
  std::uint8_t nargs;
  TraceArg args[kMaxTraceArgs] = {};
};

/// Per-thread event buffer.  Appended to only by its owning thread; read
/// by the flushing thread after the owner has quiesced (see the contract
/// in trace.hpp).  Owned by the registry so it survives thread exit.
struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;
  /// Recording sequence number of the *oldest* retained event — nonzero
  /// once a ring wrap has dropped earlier events, so per-thread `seq`
  /// stays monotonic across wrap-around.
  std::uint64_t seq_base = 0;
  /// Flight-recorder ring head: index of the oldest event once the buffer
  /// has wrapped.  0 while the buffer is a plain append log, so every
  /// reader can uniformly iterate `events[(ring_head + i) % size]`.
  size_t ring_head = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint64_t epoch = 0;  ///< steady_clock ns at first enable; 0 = unset

  static Registry& instance() {
    static Registry* r = new Registry;  // leaked: outlives thread exit
    return *r;
  }
};

thread_local ThreadBuffer* tl_buffer = nullptr;

/// Flight-recorder capacity in events per thread; 0 = unbounded (plain
/// append).  Read relaxed by every recording thread on each push.
std::atomic<size_t> g_flight_capacity{0};
/// Events lost to ring wrap-around since enable/reset.
std::atomic<std::uint64_t> g_flight_dropped{0};

/// Appends `e` to `buf`, honouring the flight-recorder bound.  Owner
/// thread only.  Below capacity this is the plain push_back of the
/// unbounded mode; at capacity the oldest event is overwritten in place
/// and the ring head and base sequence advance, so the buffer's memory
/// never grows past capacity * sizeof(Event).
void push_event(ThreadBuffer& buf, const Event& e) {
  const size_t cap = g_flight_capacity.load(std::memory_order_relaxed);
  if (cap == 0 || buf.events.size() < cap) {
    buf.events.push_back(e);
    return;
  }
  if (buf.events.size() > cap) {
    // Capacity shrank (or the recorder was enabled over an existing
    // buffer): restore logical order, shed the oldest, release the
    // excess memory.  One-time cost on the owning thread's next record.
    std::rotate(buf.events.begin(),
                buf.events.begin() + static_cast<std::ptrdiff_t>(buf.ring_head),
                buf.events.end());
    const size_t shed = buf.events.size() - cap;
    buf.events.erase(buf.events.begin(),
                     buf.events.begin() + static_cast<std::ptrdiff_t>(shed));
    buf.events.shrink_to_fit();
    buf.ring_head = 0;
    buf.seq_base += shed;
    g_flight_dropped.fetch_add(shed, std::memory_order_relaxed);
  }
  buf.events[buf.ring_head] = e;
  buf.ring_head = (buf.ring_head + 1) % buf.events.size();
  ++buf.seq_base;
  g_flight_dropped.fetch_add(1, std::memory_order_relaxed);
}

ThreadBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    Registry& reg = Registry::instance();
    std::lock_guard lock(reg.mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<int>(reg.buffers.size());
    tl_buffer = buf.get();
    reg.buffers.push_back(std::move(buf));
  }
  return *tl_buffer;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Chrome trace `ts`/`dur` are microseconds; emit ns-precise decimals.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

/// (ts, tid, seq) comparator of every flush: byte-stable output for a
/// fixed event set.
bool event_order(const TraceEventView& a, const TraceEventView& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.tid != b.tid) return a.tid < b.tid;
  return a.seq < b.seq;
}

/// Serialises one event as a Chrome trace-event object (no separator).
void append_event_json(std::string& out, const TraceEventView& e) {
  char buf[64];
  out += "{\"name\":\"";
  append_json_escaped(out, e.name);
  out += "\",\"cat\":\"na\",\"ph\":\"";
  out += e.ph;
  out += "\",\"ts\":";
  append_us(out, e.ts);
  if (e.ph == 'X') {
    out += ",\"dur\":";
    append_us(out, e.dur);
  } else if (e.ph == 'i') {
    out += ",\"s\":\"t\"";  // thread-scoped instant
  }  // counters ('C') carry only their args
  std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%d", e.tid);
  out += buf;
  if (!e.args.empty()) {
    out += ",\"args\":{";
    for (size_t a = 0; a < e.args.size(); ++a) {
      if (a > 0) out += ',';
      out += '"';
      append_json_escaped(out, e.args[a].key);
      out += "\":";
      if (e.args[a].str != nullptr) {
        out += '"';
        append_json_escaped(out, e.args[a].str);
        out += '"';
      } else {
        std::snprintf(buf, sizeof buf, "%lld", e.args[a].value);
        out += buf;
      }
    }
    out += '}';
  }
  out += '}';
}

constexpr const char* kJsonHeader = "{\"traceEvents\":[\n";
constexpr const char* kJsonFooter = "],\"displayTimeUnit\":\"ms\"}\n";

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

std::uint64_t now_ns() {
  const std::uint64_t epoch = Registry::instance().epoch;
  const std::uint64_t now = steady_ns();
  return now >= epoch ? now - epoch : 0;
}

void record_complete(const char* name, std::uint64_t ts, std::uint64_t dur,
                     const TraceArg* args, int nargs) {
  ThreadBuffer& buf = local_buffer();
  Event e{name, ts, dur, 'X', static_cast<std::uint8_t>(nargs), {}};
  for (int i = 0; i < nargs && i < kMaxTraceArgs; ++i) e.args[i] = args[i];
  push_event(buf, e);
}

void record_instant(const char* name, const TraceArg* args, int nargs) {
  ThreadBuffer& buf = local_buffer();
  Event e{name, now_ns(), 0, 'i', static_cast<std::uint8_t>(nargs), {}};
  for (int i = 0; i < nargs && i < kMaxTraceArgs; ++i) e.args[i] = args[i];
  push_event(buf, e);
}

void record_counter(const char* name, const char* series, long long value) {
  ThreadBuffer& buf = local_buffer();
  Event e{name, now_ns(), 0, 'C', 1, {}};
  e.args[0] = {series, value};
  push_event(buf, e);
}

}  // namespace detail

bool trace_compiled_in() { return NA_TRACE_ENABLED != 0; }

void trace_enable() {
  Registry& reg = Registry::instance();
  {
    std::lock_guard lock(reg.mu);
    if (reg.epoch == 0) reg.epoch = steady_ns();
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

bool trace_enabled() { return detail::on(); }

void trace_reset() {
  Registry& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  for (auto& buf : reg.buffers) {
    buf->events.clear();
    buf->seq_base = 0;
    buf->ring_head = 0;
  }
  reg.epoch = 0;
  g_flight_dropped.store(0, std::memory_order_relaxed);
}

namespace {

/// Appends every retained event of `buf` to `out` in recording order —
/// ring-aware: the oldest event sits at ring_head, so logical position i
/// maps to slot (ring_head + i) % size and carries seq = seq_base + i.
/// Plain append-log buffers have ring_head == 0, making this the identity
/// iteration.  Caller holds the registry mutex.
void collect_buffer(const ThreadBuffer& buf, std::vector<TraceEventView>& out) {
  const size_t n = buf.events.size();
  for (size_t i = 0; i < n; ++i) {
    const Event& e = buf.events[(buf.ring_head + i) % n];
    TraceEventView v{e.name,
                     e.ts,
                     e.dur,
                     buf.tid,
                     buf.seq_base + i,
                     e.ph,
                     {}};
    v.args.assign(e.args, e.args + e.nargs);
    out.push_back(std::move(v));
  }
}

}  // namespace

std::vector<TraceEventView> trace_events() {
  Registry& reg = Registry::instance();
  std::vector<TraceEventView> out;
  {
    std::lock_guard lock(reg.mu);
    for (const auto& buf : reg.buffers) collect_buffer(*buf, out);
  }
  // Merge sort: global timestamp order, ties broken by (tid, seq) so the
  // result is deterministic for a fixed event set.
  std::stable_sort(out.begin(), out.end(), event_order);
  return out;
}

std::string trace_to_json() {
  const std::vector<TraceEventView> events = trace_events();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += kJsonHeader;
  for (size_t i = 0; i < events.size(); ++i) {
    append_event_json(out, events[i]);
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += kJsonFooter;
  return out;
}

bool trace_write(const std::string& path) {
  const std::string json = trace_to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

size_t trace_buffered_events() {
  Registry& reg = Registry::instance();
  std::lock_guard lock(reg.mu);
  size_t n = 0;
  for (const auto& buf : reg.buffers) n += buf->events.size();
  return n;
}

// ----- span rollup -----------------------------------------------------------

std::vector<SpanStats> span_rollup(std::span<const TraceEventView> events) {
  // Complete spans by (thread, start, longer first).  Walking a thread's
  // spans with a stack of the open ones, a span's parent is the innermost
  // open span it starts in; children reach their parent in start order,
  // so one running reach per parent sums the union of their clipped
  // intervals.
  std::vector<const TraceEventView*> s;
  for (const TraceEventView& e : events) {
    if (e.ph == 'X') s.push_back(&e);
  }
  std::stable_sort(s.begin(), s.end(), [](const auto* x, const auto* y) {
    return std::tuple(x->tid, x->ts, ~x->dur) < std::tuple(y->tid, y->ts, ~y->dur);
  });
  auto end = [&](size_t i) { return s[i]->ts + s[i]->dur; };
  std::vector<std::uint64_t> covered(s.size(), 0);
  std::vector<std::uint64_t> reach(s.size());
  std::vector<size_t> open;
  for (size_t i = 0; i < s.size(); ++i) {
    reach[i] = s[i]->ts;
    if (i > 0 && s[i - 1]->tid != s[i]->tid) open.clear();
    while (!open.empty() && end(open.back()) <= s[i]->ts) open.pop_back();
    if (!open.empty()) {
      const size_t p = open.back();
      const std::uint64_t lo = std::max(s[i]->ts, reach[p]);
      const std::uint64_t hi = std::min(end(i), end(p));
      if (hi > lo) {
        covered[p] += hi - lo;
        reach[p] = hi;
      }
    }
    open.push_back(i);
  }

  std::map<std::string, std::pair<std::vector<std::uint64_t>, std::uint64_t>>
      by_name;  // durations, summed self time
  for (size_t i = 0; i < s.size(); ++i) {
    auto& [durs, self] = by_name[s[i]->name];
    durs.push_back(s[i]->dur);
    self += s[i]->dur - covered[i];
  }
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::vector<SpanStats> rollup;
  for (auto& [name, acc] : by_name) {
    std::vector<std::uint64_t>& durs = acc.first;
    std::sort(durs.begin(), durs.end());
    // Nearest rank: the smallest duration covering a q share.
    auto pct = [&](double q) {
      const double rank = std::ceil(q * static_cast<double>(durs.size()));
      return ms(durs[std::max<size_t>(1, static_cast<size_t>(rank)) - 1]);
    };
    rollup.push_back(
        {name, static_cast<long long>(durs.size()),
         ms(std::accumulate(durs.begin(), durs.end(), std::uint64_t{0})),
         ms(acc.second), pct(0.5), pct(0.99)});
  }
  return rollup;
}

double span_total_ms(const std::vector<SpanStats>& rollup,
                     std::string_view name) {
  for (const SpanStats& s : rollup) {
    if (s.name == name) return s.total_ms;
  }
  return 0.0;
}

void absorb(MetricsRegistry& reg, const std::vector<SpanStats>& rollup) {
  for (const SpanStats& s : rollup) {
    const std::string prefix = "span." + s.name + ".";
    reg.set(prefix + "count", s.count);
    reg.set(prefix + "total_ms", s.total_ms);
    reg.set(prefix + "self_ms", s.self_ms);
    reg.set(prefix + "p50_ms", s.p50_ms);
    reg.set(prefix + "p99_ms", s.p99_ms);
  }
}

// ----- flight recorder -------------------------------------------------------

void trace_flight_enable(size_t events_per_thread) {
  g_flight_capacity.store(events_per_thread, std::memory_order_relaxed);
  g_flight_dropped.store(0, std::memory_order_relaxed);
}

bool trace_flight_enabled() {
  return g_flight_capacity.load(std::memory_order_relaxed) > 0;
}

size_t trace_flight_capacity() {
  return g_flight_capacity.load(std::memory_order_relaxed);
}

std::uint64_t trace_flight_dropped() {
  return g_flight_dropped.load(std::memory_order_relaxed);
}

bool trace_flight_dump(const std::string& path) {
  if (!trace_flight_enabled()) return false;
  // The rings *are* the retained events, so a dump is a one-shot write of
  // everything buffered — collection is ring-aware, emission identical to
  // trace_write().
  return trace_write(path);
}

}  // namespace na::obs
