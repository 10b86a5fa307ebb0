// Structured diagnostics: the stderr channel for warnings and debug
// traces from parallel code.
//
// Raw fprintf from pool worker threads interleaves garbage on stderr
// the moment two threads emit at once.  diagf() instead formats the whole
// line into a private buffer and hands it to the stream in a single write,
// prefixed "na[<category>] " so downstream log scrapers can filter by
// subsystem.  Each category is rate-limited per process run: after `limit`
// lines one final "suppressed" notice is printed and the category goes
// quiet (counters keep counting, so a later limit raise would be honest).
// Every emitted line is mirrored as a trace instant when tracing is on,
// so diagnostics land on the same timeline as the spans around them.
#pragma once

#include <cstdarg>

namespace na::obs {

class MetricsRegistry;

/// Default per-category line budget.
inline constexpr int kDiagDefaultLimit = 64;

/// printf-style rate-limited diagnostic.  Thread-safe; one atomic write
/// per line.  `category` must be a string literal (it is stored and also
/// becomes the trace-event name).
#if defined(__GNUC__)
__attribute__((format(printf, 3, 4)))
#endif
void diagf(const char* category, int limit, const char* fmt, ...);

/// Diagnostic lines attempted (including suppressed) for `category` — test hook.
int diag_emitted(const char* category);

/// Exports every category's counters into `reg`: `diag.lines.<cat>`
/// (lines attempted) and `diag.suppressed.<cat>` (attempted past the
/// category's rate limit — the lines that never reached stderr).  A
/// nonzero suppressed count in a stats emission is the tell that the
/// visible log understates what happened.  Category iteration order is
/// sorted, so the emission stays byte-stable.
void diag_absorb(MetricsRegistry& reg);

/// Resets every category's counters — test hook.
void diag_reset();

/// Redirects diagnostics to `path` instead of stderr (nullptr restores
/// stderr) — test hook for asserting on output without capturing stderr.
void diag_set_sink_for_testing(const char* path);

}  // namespace na::obs
