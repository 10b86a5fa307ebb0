// Named-counter/timer registry and the one JSON emitter the CLIs, benches
// and tests share.
//
// The registry replaces the independent, hand-printed stats structs
// (RouteReport, RegenCounters, DiagramStats) with a single ordered
// name -> value table that can be emitted as an aligned text block or a
// JSON object — one `--stats json` run yields every pipeline counter the
// paper's Table 6.1-style breakdowns need.  Absorbers that translate the
// pipeline structs into registry entries live in obs/stats_absorb.hpp
// (header-only, so na_obs itself stays dependency-free).
//
// JsonWriter is the low-level emitter underneath: a comma/escape-correct
// JSON builder used by MetricsRegistry, the daemon's wire replies and
// anything else that used to hand-roll fprintf JSON.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace na::obs {

/// A metric value: integer counter or floating timer/ratio.  Implicit
/// construction keeps absorber code terse.
struct MetricValue {
  bool is_int = true;
  long long i = 0;
  double d = 0.0;

  MetricValue() = default;
  MetricValue(int v) : is_int(true), i(v) {}                  // NOLINT
  MetricValue(long v) : is_int(true), i(v) {}                 // NOLINT
  MetricValue(long long v) : is_int(true), i(v) {}            // NOLINT
  MetricValue(double v) : is_int(false), d(v) {}              // NOLINT
};

/// Incrementally built JSON document.  Handles commas, nesting and string
/// escaping; numbers are emitted with a fixed format so output is
/// byte-stable for a fixed input.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(bool v);  ///< JSON true/false
  JsonWriter& value(long long v);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(long v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(double v);  ///< %.3f — timers are milliseconds
  JsonWriter& value(std::string_view v);
  /// Keeps string literals away from the bool overload.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const MetricValue& v);
  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void before_value();
  std::string out_;
  std::vector<char> stack_;   ///< '{' or '['
  bool after_key_ = false;
  std::vector<bool> has_items_;
};

/// Ordered name -> value table.  set() keeps first-insertion order (so
/// emission order is the absorption order, stable and diff-friendly) and
/// overwrites on re-set; add() accumulates into an integer counter.
/// Histogram snapshots live in a parallel insertion-ordered table:
/// scalars render as before, histograms as summary lines (text) and a
/// "histograms" object (JSON — present only when one was set, so
/// scalar-only emissions keep their old shape).
class MetricsRegistry {
 public:
  void set(std::string name, MetricValue v);
  void add(std::string name, long long delta);
  /// Stores (or overwrites) a histogram snapshot under `name`.  By
  /// convention latency histograms record microseconds.
  void set_histogram(std::string name, HistogramData h);
  /// Copies every entry of `other` into this registry as `prefix + name`.
  /// Lets a binary that runs the pipeline twice (life_game's figures 6.6
  /// and 6.7) keep both runs' counters apart in one emission.
  void merge_prefixed(const MetricsRegistry& other, std::string_view prefix);

  bool empty() const { return entries_.empty() && histograms_.empty(); }
  size_t size() const { return entries_.size(); }
  /// Lookup for tests; nullptr when absent.
  const MetricValue* find(std::string_view name) const;
  const HistogramData* find_histogram(std::string_view name) const;

  /// Aligned `name  value` lines; histograms render one summary line each
  /// (count plus ms quantiles, assuming microsecond values).
  std::string to_text() const;
  /// One JSON object: {"schema_version": N, "metrics": {...}} plus a
  /// "histograms" object when any histogram was set.
  std::string to_json() const;

  /// Format version of to_json() — bump when fields change meaning.
  /// 3: histograms.  4: phase times are span.<name>.* rollup rows.
  static constexpr int kSchemaVersion = 4;

 private:
  struct Entry {
    std::string name;
    MetricValue value;
  };
  struct HistEntry {
    std::string name;
    HistogramData data;
  };
  std::vector<Entry> entries_;
  std::vector<HistEntry> histograms_;
};

/// Aligned text table over MetricValue cells — the shared renderer behind
/// the benches' paper-vs-measured tables (one formatting path next to the
/// registry instead of a printf format string per bench).  Column widths
/// are fixed up front (header text or `min_width`, whichever is wider), so
/// a row can be rendered and printed the moment it is computed.
class MetricsTable {
 public:
  MetricsTable(std::string label_header, std::vector<std::string> columns,
               int label_width = 26, int min_width = 6);

  /// Appends a row: `label` left-aligned in the first column, one value
  /// per remaining column right-aligned.  Missing trailing values render
  /// empty.
  void add_row(std::string label, std::vector<MetricValue> values);

  size_t rows() const { return rows_.size(); }
  std::string header_text() const;
  std::string row_text(size_t i) const;
  std::string to_text() const;  ///< header plus every row

 private:
  std::string label_header_;
  std::vector<std::string> columns_;
  int label_width_;
  int min_width_;
  struct Row {
    std::string label;
    std::vector<MetricValue> values;
  };
  std::vector<Row> rows_;
};

/// Peak resident set size of this process in bytes; 0 when the platform
/// doesn't expose it.  The scale benches report it next to modules/sec.
long long peak_rss_bytes();

}  // namespace na::obs
