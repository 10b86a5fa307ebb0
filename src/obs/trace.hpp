// Low-overhead tracing for the generator pipeline.
//
// Design (the measurement substrate every perf PR reports against):
//   * recording appends fixed-size events to a lock-free thread-local
//     buffer — no allocation on the hot path beyond the buffer's own
//     amortised growth, no synchronisation between recording threads;
//   * a global registry owns every thread buffer (created under a mutex on
//     a thread's first event, kept alive after the thread exits) so a
//     flush after the instrumented work has quiesced sees everything;
//   * flush merges the buffers, stable-sorts by (timestamp, thread,
//     sequence) — byte-stable for a fixed event set — and serialises to
//     Chrome trace-event JSON ("X" complete spans, "C" counters), viewable
//     in chrome://tracing and Perfetto;
//   * timestamps come from steady_clock, expressed in nanoseconds since
//     the recorder was enabled.
//
// Cost model:
//   * tracing disabled (the default at runtime): one relaxed atomic load
//     and a predictable branch per span or counter.
//   * enabled: a steady_clock read per span edge plus one vector
//     push_back on the thread's private buffer.
//
// Thread-safety contract: recording is safe from any number of threads
// concurrently; trace_to_json()/trace_write()/trace_reset() must be called
// only when no instrumented work is in flight (after ThreadPool
// wait_idle()/join — both establish the needed happens-before edge).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace na::obs {

/// One span or counter argument: a static-string key with either an integer
/// or a static-string value.  Keys and string values must outlive the
/// recorder (string literals in practice) — events store the pointers.
struct TraceArg {
  const char* key;
  long long value;
  const char* str;  ///< non-null: string argument, `value` ignored

  constexpr TraceArg() : key(nullptr), value(0), str(nullptr) {}
  constexpr TraceArg(const char* k, long long v) : key(k), value(v), str(nullptr) {}
  constexpr TraceArg(const char* k, int v) : key(k), value(v), str(nullptr) {}
  constexpr TraceArg(const char* k, const char* s) : key(k), value(0), str(s) {}
};

/// Runtime switch.  Enabling (re)sets the trace epoch only on the first
/// enable or after trace_reset(), so disable/enable pairs keep one
/// continuous timeline.
void trace_enable();
void trace_disable();

/// Drops every recorded event and clears the epoch.  Buffers of live
/// threads stay registered.
void trace_reset();

/// A merged, sorted view of one recorded event — the introspection hook
/// the tests use to check per-thread monotonicity and nesting without
/// parsing JSON.
struct TraceEventView {
  const char* name;
  std::uint64_t ts;   ///< ns since epoch
  std::uint64_t dur;  ///< ns; 0 for counters
  int tid;            ///< registry-assigned small id (registration order)
  std::uint64_t seq;  ///< per-thread recording sequence number
  char ph;            ///< 'X' complete span, 'C' counter
  std::vector<TraceArg> args;
};

/// Merge-sorted snapshot of everything recorded so far.
std::vector<TraceEventView> trace_events();

/// Serialises the merged events as Chrome trace-event JSON.  Byte-stable:
/// two calls over the same recorded events return identical strings.
std::string trace_to_json();

/// Writes trace_to_json() to `path`; false (with errno intact) on failure.
bool trace_write(const std::string& path);

/// Events currently retained across every thread buffer — with the flight
/// recorder on, the rings' total occupancy (at most threads x capacity).
size_t trace_buffered_events();

// ----- flight recorder -------------------------------------------------------
// How a long-lived process keeps tracing always on: instead of buffering
// everything until exit, every thread buffer becomes a ring holding
// only its last `events_per_thread` events.  Memory is then fixed —
// threads x capacity x sizeof(event) — and what the rings hold at any
// moment is the recent history ("what was the daemon doing just now"),
// dumpable on demand into a normal Chrome-JSON trace: the black box you
// read after something went wrong, not a full flight log.
//
// Recording into a ring stays lock-free and owner-thread-only: wrapping
// overwrites the oldest event and advances the buffer's base sequence
// number, so dumps stay byte-stable and per-thread seq stays monotonic.
// Dumps obey the same quiescence contract as every other flush — the
// daemon takes its flush gate exclusive first (DESIGN §11 has the
// happens-before argument).

/// Bounds every thread buffer to the last `events_per_thread` events;
/// 0 restores unbounded buffering.  Call before the instrumented work
/// starts — existing over-capacity buffers shed their oldest events on
/// the owning thread's next record.
void trace_flight_enable(size_t events_per_thread);
bool trace_flight_enabled();
size_t trace_flight_capacity();
/// Events overwritten (lost to ring wrap-around) since the recorder was
/// enabled or reset.
std::uint64_t trace_flight_dropped();
/// Writes everything the rings currently retain as a Chrome-JSON trace.
/// Same quiescence contract as trace_write(); false when the flight
/// recorder is off or the file cannot be written.
bool trace_flight_dump(const std::string& path);

// ----- span rollup -----------------------------------------------------------
// The one timing source of the CLIs' --stats and the benches' tables, with
// the definitions of perfbench/run.py's rollup, so both agree on a trace.

class MetricsRegistry;

/// Rollup row of one span name; times in milliseconds.  Self time leaves
/// out the union of the same-thread child spans' intervals, each clipped
/// to its parent; p50/p99 are nearest-rank.
struct SpanStats {
  std::string name;
  long long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Rolls up the complete ("X") spans of `events` (trace_events() or a
/// slice of it), one row per span name, sorted by name.
std::vector<SpanStats> span_rollup(std::span<const TraceEventView> events);

/// Total time of span `name` in `rollup`; 0 when no such span ran.
double span_total_ms(const std::vector<SpanStats>& rollup,
                     std::string_view name);

/// Writes span.<name>.{count,total_ms,self_ms,p50_ms,p99_ms} per row.
void absorb(MetricsRegistry& reg, const std::vector<SpanStats>& rollup);

namespace detail {

extern std::atomic<bool> g_enabled;

inline bool on() { return g_enabled.load(std::memory_order_relaxed); }

/// Current ns-since-epoch timestamp (epoch = first enable).
std::uint64_t now_ns();

void record_complete(const char* name, std::uint64_t ts, std::uint64_t dur,
                     const TraceArg* args, int nargs);
/// Counter ("C") sample: one series value at the current timestamp.
/// Viewers plot same-named counters per thread as a time series (queue
/// depths, cumulative expansion counts, ...).
void record_counter(const char* name, const char* series, long long value);

}  // namespace detail

/// Maximum arguments one span can carry.
inline constexpr int kMaxTraceArgs = 6;

/// RAII span: records one complete ("X") event covering its lifetime.
/// When tracing is disabled at construction the span is inert (one branch
/// per method).  Arguments added via arg() land on the event.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (detail::on()) {
      name_ = name;
      start_ = detail::now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::record_complete(name_, start_, detail::now_ns() - start_, args_,
                              nargs_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void arg(const char* key, long long v) {
    if (name_ != nullptr && nargs_ < kMaxTraceArgs) args_[nargs_++] = {key, v};
  }
  void arg(const char* key, int v) { arg(key, static_cast<long long>(v)); }
  void arg(const char* key, long v) { arg(key, static_cast<long long>(v)); }
  void arg(const char* key, unsigned v) { arg(key, static_cast<long long>(v)); }
  void arg(const char* key, size_t v) { arg(key, static_cast<long long>(v)); }
  void arg(const char* key, const char* s) {
    if (name_ != nullptr && nargs_ < kMaxTraceArgs) args_[nargs_++] = {key, s};
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  TraceArg args_[kMaxTraceArgs] = {};
  int nargs_ = 0;
};

#define NA_OBS_CONCAT2(a, b) a##b
#define NA_OBS_CONCAT(a, b) NA_OBS_CONCAT2(a, b)

/// Anonymous span covering the rest of the enclosing scope.
#define NA_TRACE_SCOPE(name) \
  ::na::obs::TraceSpan NA_OBS_CONCAT(na_trace_span_, __LINE__)(name)

/// Named span — use when arguments are attached later via `var.arg(...)`.
#define NA_TRACE_SPAN(var, name) ::na::obs::TraceSpan var(name)

/// Counter sample:
///   NA_TRACE_COUNTER("pool.queue", "queued", depth);
/// `name` and `series` must be string literals (the event stores the
/// pointers); `value` is any integral expression.
#define NA_TRACE_COUNTER(name, series, value)                            \
  do {                                                                   \
    if (::na::obs::detail::on()) {                                       \
      ::na::obs::detail::record_counter(name, series,                    \
                                        static_cast<long long>(value));  \
    }                                                                    \
  } while (0)

}  // namespace na::obs
