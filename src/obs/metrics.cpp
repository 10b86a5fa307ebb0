#include "obs/metrics.hpp"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace na::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
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

// ----- JsonWriter ------------------------------------------------------------

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
  out_ += '"';
  append_json_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  before_value();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_json_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const MetricValue& v) {
  return v.is_int ? value(v.i) : value(v.d);
}

// ----- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::set(std::string name, MetricValue v) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = v;
      return;
    }
  }
  entries_.push_back({std::move(name), v});
}

void MetricsRegistry::add(std::string name, long long delta) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value.i += delta;
      return;
    }
  }
  entries_.push_back({std::move(name), MetricValue(delta)});
}

void MetricsRegistry::set_histogram(std::string name, HistogramData h) {
  for (HistEntry& e : histograms_) {
    if (e.name == name) {
      e.data = std::move(h);
      return;
    }
  }
  histograms_.push_back({std::move(name), std::move(h)});
}

void MetricsRegistry::merge_prefixed(const MetricsRegistry& other,
                                     std::string_view prefix) {
  for (const Entry& e : other.entries_) {
    set(std::string(prefix) + e.name, e.value);
  }
  for (const HistEntry& e : other.histograms_) {
    set_histogram(std::string(prefix) + e.name, e.data);
  }
}

const MetricValue* MetricsRegistry::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e.value;
  }
  return nullptr;
}

std::string MetricsRegistry::to_text() const {
  size_t width = 0;
  for (const Entry& e : entries_) width = std::max(width, e.name.size());
  for (const HistEntry& e : histograms_) width = std::max(width, e.name.size());
  std::string out;
  char buf[160];
  for (const Entry& e : entries_) {
    out += e.name;
    out.append(width + 2 - e.name.size(), ' ');
    if (e.value.is_int) {
      std::snprintf(buf, sizeof buf, "%lld", e.value.i);
    } else {
      std::snprintf(buf, sizeof buf, "%.3f", e.value.d);
    }
    out += buf;
    out += '\n';
  }
  for (const HistEntry& e : histograms_) {
    out += e.name;
    out.append(width + 2 - e.name.size(), ' ');
    const HistogramData& h = e.data;
    std::snprintf(buf, sizeof buf,
                  "count=%lld p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f max_ms=%.3f",
                  h.count, h.quantile(0.50) / 1000.0, h.quantile(0.90) / 1000.0,
                  h.quantile(0.99) / 1000.0, h.max / 1000.0);
    out += buf;
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object().field("schema_version", kSchemaVersion).key("metrics").begin_object();
  for (const Entry& e : entries_) w.field(e.name, e.value);
  w.end_object();
  if (!histograms_.empty()) {
    w.key("histograms").begin_object();
    for (const HistEntry& e : histograms_) {
      w.key(e.name);
      e.data.append_json(w);
    }
    w.end_object();
  }
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

// ----- MetricsTable ----------------------------------------------------------

namespace {

std::string render_cell(const MetricValue& v) {
  char buf[64];
  if (v.is_int) {
    std::snprintf(buf, sizeof buf, "%lld", v.i);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f", v.d);
  }
  return buf;
}

}  // namespace

MetricsTable::MetricsTable(std::string label_header,
                           std::vector<std::string> columns, int label_width,
                           int min_width)
    : label_header_(std::move(label_header)),
      columns_(std::move(columns)),
      label_width_(label_width),
      min_width_(min_width) {
  label_width_ = std::max<int>(label_width_, static_cast<int>(label_header_.size()));
}

void MetricsTable::add_row(std::string label, std::vector<MetricValue> values) {
  rows_.push_back({std::move(label), std::move(values)});
}

std::string MetricsTable::header_text() const {
  std::string out = label_header_;
  out.append(label_width_ - label_header_.size(), ' ');
  for (const std::string& col : columns_) {
    const int width = std::max<int>(min_width_, static_cast<int>(col.size()));
    out += ' ';
    out.append(width - col.size(), ' ');
    out += col;
  }
  out += '\n';
  return out;
}

std::string MetricsTable::row_text(size_t i) const {
  const Row& row = rows_[i];
  std::string out = row.label;
  if (static_cast<int>(row.label.size()) < label_width_) {
    out.append(label_width_ - row.label.size(), ' ');
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const int width =
        std::max<int>(min_width_, static_cast<int>(columns_[c].size()));
    const std::string cell =
        c < row.values.size() ? render_cell(row.values[c]) : std::string();
    out += ' ';
    if (static_cast<int>(cell.size()) < width) {
      out.append(width - cell.size(), ' ');
    }
    out += cell;
  }
  out += '\n';
  return out;
}

std::string MetricsTable::to_text() const {
  std::string out = header_text();
  for (size_t i = 0; i < rows_.size(); ++i) out += row_text(i);
  return out;
}

long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long long>(ru.ru_maxrss);  // bytes
#else
  return static_cast<long long>(ru.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

}  // namespace na::obs
