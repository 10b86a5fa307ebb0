// Tests of the observability layer (src/obs/): trace recorder semantics
// (nesting, per-thread monotonicity, byte-stable flush, Chrome-JSON
// round-trip), metrics registry + JSON writer, span rollup, and the guard
// that a traced pipeline run produces a byte-identical diagram and report
// to an untraced one.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/thread_pool.hpp"
#include "gen/life.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_absorb.hpp"
#include "obs/trace.hpp"
#include "route/net_order.hpp"
#include "route/router.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

// ----- a minimal JSON parser -------------------------------------------------
// Just enough to validate the trace and stats emissions: objects, arrays,
// strings, numbers (kept as text so ts/dur can be reconstructed exactly),
// true/false/null.  Throws std::runtime_error on malformed input.

struct Json {
  enum Kind { kObject, kArray, kString, kNumber, kBool, kNull } kind = kNull;
  std::vector<std::pair<std::string, Json>> object;
  std::vector<Json> array;
  std::string str;     // kString value or kNumber text
  bool boolean = false;

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double number() const { return std::stod(str); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("JSON error at ") +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            out += s_.substr(pos_ - 2, 6);  // keep verbatim; tests don't use it
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }
  Json value() {
    skip_ws();
    const char c = peek();
    Json v;
    if (c == '{') {
      ++pos_;
      v.kind = Json::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = Json::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      v.kind = Json::kBool;
      const std::string word = c == 't' ? "true" : "false";
      if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
      pos_ += word.size();
      v.boolean = c == 't';
      return v;
    }
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
      pos_ += 4;
      return v;
    }
    // number
    v.kind = Json::kNumber;
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    v.str = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Reconstructs exact nanoseconds from the emitter's fixed "<us>.<3-digit>"
/// decimal text — the round-trip check for ts/dur.
std::uint64_t ns_from_us_text(const std::string& text) {
  const size_t dot = text.find('.');
  EXPECT_NE(dot, std::string::npos) << "ts/dur text: " << text;
  EXPECT_EQ(text.size() - dot - 1, 3u) << "ts/dur text: " << text;
  return std::stoull(text.substr(0, dot)) * 1000 +
         std::stoull(text.substr(dot + 1));
}

/// Fresh recorder state for a test (events dropped, epoch re-armed).
void fresh_trace() {
  obs::trace_disable();
  obs::trace_reset();
  obs::trace_enable();
}

// ----- trace recorder --------------------------------------------------------

TEST(Trace, SpanNesting) {
  fresh_trace();
  {
    NA_TRACE_SCOPE("outer");
    {
      NA_TRACE_SCOPE("inner_a");
      NA_TRACE_COUNTER("tick", "n", 1);
    }
    { NA_TRACE_SCOPE("inner_b"); }
  }
  obs::trace_disable();
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 4u);

  // Same-thread spans must be properly nested or disjoint — never
  // partially overlapping.
  std::vector<obs::TraceEventView> spans;
  for (const auto& e : events) {
    if (e.ph == 'X') spans.push_back(e);
  }
  ASSERT_EQ(spans.size(), 3u);
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[i].tid != spans[j].tid) continue;
      const std::uint64_t a0 = spans[i].ts, a1 = spans[i].ts + spans[i].dur;
      const std::uint64_t b0 = spans[j].ts, b1 = spans[j].ts + spans[j].dur;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_in_b = b0 <= a0 && a1 <= b1;
      const bool b_in_a = a0 <= b0 && b1 <= a1;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << spans[i].name << " [" << a0 << "," << a1 << ") vs "
          << spans[j].name << " [" << b0 << "," << b1 << ")";
    }
  }

  // The named spans contain what they should: outer covers both inners,
  // and the counter sample lands inside inner_a.
  std::map<std::string, const obs::TraceEventView*> by_name;
  for (const auto& e : events) by_name[e.name] = &e;
  ASSERT_TRUE(by_name.count("outer") && by_name.count("inner_a") &&
              by_name.count("inner_b") && by_name.count("tick"));
  const auto* outer = by_name["outer"];
  const auto* inner_a = by_name["inner_a"];
  const auto* tick = by_name["tick"];
  EXPECT_GE(inner_a->ts, outer->ts);
  EXPECT_LE(inner_a->ts + inner_a->dur, outer->ts + outer->dur);
  EXPECT_GE(tick->ts, inner_a->ts);
  EXPECT_LE(tick->ts, inner_a->ts + inner_a->dur);
}

TEST(Trace, SpanArgsRecorded) {
  fresh_trace();
  {
    NA_TRACE_SPAN(span, "work");
    span.arg("net", 42);
    span.arg("outcome", "clean");
    NA_TRACE_COUNTER("note", "pos", 7);
  }
  obs::trace_disable();
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);
  const auto& note = events[0].ph == 'C' ? events[0] : events[1];
  const auto& work = events[0].ph == 'X' ? events[0] : events[1];
  ASSERT_EQ(work.args.size(), 2u);
  EXPECT_STREQ(work.args[0].key, "net");
  EXPECT_EQ(work.args[0].value, 42);
  EXPECT_STREQ(work.args[1].key, "outcome");
  EXPECT_STREQ(work.args[1].str, "clean");
  ASSERT_EQ(note.args.size(), 1u);
  EXPECT_STREQ(note.args[0].key, "pos");
  EXPECT_EQ(note.args[0].value, 7);
}

TEST(Trace, PerThreadTimestampsMonotonicUnderPool) {
  fresh_trace();
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([i] {
        NA_TRACE_SCOPE("task");
        NA_TRACE_SPAN(step, "step");
        step.arg("i", i);
      });
    }
    pool.wait_idle();
  }  // pool join: workers quiesced before the flush below
  obs::trace_disable();
  const auto all = obs::trace_events();
  // The pool itself emits 'C' (queue-depth) counter events on submit and
  // task pop; keep them out of the span accounting below but check
  // they are present and well-formed.
  std::vector<obs::TraceEventView> events;
  int queue_counters = 0;
  for (const auto& e : all) {
    if (e.ph == 'C') {
      if (std::string(e.name) == "pool.queue") {
        ++queue_counters;
        ASSERT_EQ(e.args.size(), 1u);
        EXPECT_STREQ(e.args[0].key, "queued");
        EXPECT_GE(e.args[0].value, 0);
      }
      continue;
    }
    events.push_back(e);
  }
  EXPECT_EQ(events.size(), 400u);
  EXPECT_GE(queue_counters, 400);  // one per submit + one per pop

  // Per thread, recording order (seq) must agree with time: spans carry
  // their end time (they are recorded at close, the inner one first).
  std::map<int, std::vector<const obs::TraceEventView*>> per_tid;
  for (const auto& e : events) per_tid[e.tid].push_back(&e);
  for (auto& [tid, list] : per_tid) {
    std::sort(list.begin(), list.end(),
              [](const obs::TraceEventView* a, const obs::TraceEventView* b) {
                return a->seq < b->seq;
              });
    std::uint64_t last_end = 0;
    for (const auto* e : list) {
      const std::uint64_t end = e->ts + e->dur;
      EXPECT_GE(end, last_end) << "tid " << tid << " seq " << e->seq;
      last_end = end;
    }
  }

  // The merged view is globally sorted by (ts, tid, seq).
  for (size_t i = 1; i < events.size(); ++i) {
    const auto& a = events[i - 1];
    const auto& b = events[i];
    EXPECT_TRUE(a.ts < b.ts || (a.ts == b.ts && (a.tid < b.tid ||
                (a.tid == b.tid && a.seq < b.seq))));
  }
}

TEST(Trace, FlushIsByteStable) {
  fresh_trace();
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) {
      pool.submit([] { NA_TRACE_SCOPE("work"); });
    }
    pool.wait_idle();
  }
  obs::trace_disable();
  const std::string a = obs::trace_to_json();
  const std::string b = obs::trace_to_json();
  EXPECT_EQ(a, b);  // merge-sort flush is deterministic for fixed events
  EXPECT_FALSE(a.empty());
}

TEST(Trace, JsonRoundTripsPhTsDur) {
  fresh_trace();
  {
    NA_TRACE_SPAN(span, "alpha");
    span.arg("n", 3);
    span.arg("kind", "test");
    NA_TRACE_COUNTER("beta", "x", -1);
  }
  obs::trace_disable();
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 2u);

  const std::string json = obs::trace_to_json();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(json).parse()) << json;
  ASSERT_EQ(root.kind, Json::kObject);
  const Json* list = root.find("traceEvents");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->kind, Json::kArray);
  ASSERT_EQ(list->array.size(), events.size());

  for (size_t i = 0; i < events.size(); ++i) {
    const Json& ev = list->array[i];
    ASSERT_EQ(ev.kind, Json::kObject);
    const Json* name = ev.find("name");
    const Json* ph = ev.find("ph");
    const Json* ts = ev.find("ts");
    const Json* pid = ev.find("pid");
    const Json* tid = ev.find("tid");
    ASSERT_TRUE(name && ph && ts && pid && tid);
    EXPECT_EQ(name->str, events[i].name);
    ASSERT_EQ(ph->str.size(), 1u);
    EXPECT_EQ(ph->str[0], events[i].ph);
    EXPECT_EQ(ns_from_us_text(ts->str), events[i].ts);
    EXPECT_EQ(std::stoi(tid->str), events[i].tid);
    if (events[i].ph == 'X') {
      const Json* dur = ev.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_EQ(ns_from_us_text(dur->str), events[i].dur);
    }
    if (!events[i].args.empty()) {
      const Json* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_EQ(args->object.size(), events[i].args.size());
      for (size_t a = 0; a < events[i].args.size(); ++a) {
        EXPECT_EQ(args->object[a].first, events[i].args[a].key);
        if (events[i].args[a].str != nullptr) {
          EXPECT_EQ(args->object[a].second.str, events[i].args[a].str);
        } else {
          EXPECT_EQ(std::stoll(args->object[a].second.str),
                    events[i].args[a].value);
        }
      }
    }
  }
}

TEST(Trace, DisabledRecordsNothing) {
  fresh_trace();
  obs::trace_disable();
  const size_t before = obs::trace_events().size();
  {
    NA_TRACE_SCOPE("ignored");
    NA_TRACE_COUNTER("ignored_too", "n", 1);
  }
  EXPECT_EQ(obs::trace_events().size(), before);
}

TEST(Trace, ResetDropsEvents) {
  fresh_trace();
  { NA_TRACE_SCOPE("x"); }
  obs::trace_disable();
  EXPECT_FALSE(obs::trace_events().empty());
  obs::trace_reset();
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST(Trace, WriteProducesParsableFile) {
  fresh_trace();
  { NA_TRACE_SCOPE("filed"); }
  obs::trace_disable();
  const std::string path = testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(obs::trace_write(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), obs::trace_to_json());
  EXPECT_NO_THROW(JsonParser(ss.str()).parse());
  std::remove(path.c_str());
}

// ----- metrics registry + JSON writer ---------------------------------------

TEST(Metrics, RegistryOrderAndLookup) {
  obs::MetricsRegistry reg;
  reg.set("b.count", 2);
  reg.set("a.count", 1);
  reg.add("b.count", 3);  // accumulate, not reorder
  reg.set("t.ms", 1.5);
  ASSERT_NE(reg.find("b.count"), nullptr);
  EXPECT_EQ(reg.find("b.count")->i, 5);
  EXPECT_EQ(reg.find("missing"), nullptr);

  // Insertion order survives into the text emission.
  const std::string text = reg.to_text();
  EXPECT_LT(text.find("b.count"), text.find("a.count"));
  EXPECT_NE(text.find("1.500"), std::string::npos);
}

TEST(Metrics, JsonEmissionCarriesSchemaVersion) {
  obs::MetricsRegistry reg;
  reg.set("route.nets_routed", 222);
  reg.set("quote\"key", 1);  // escaping must hold
  Json root;
  ASSERT_NO_THROW(root = JsonParser(reg.to_json()).parse());
  const Json* ver = root.find("schema_version");
  ASSERT_NE(ver, nullptr);
  EXPECT_EQ(std::stoi(ver->str), obs::MetricsRegistry::kSchemaVersion);
  const Json* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* routed = metrics->find("route.nets_routed");
  ASSERT_NE(routed, nullptr);
  EXPECT_EQ(std::stoi(routed->str), 222);
  EXPECT_NE(metrics->find("quote\"key"), nullptr);
}

TEST(Metrics, MergePrefixedKeepsRunsApart) {
  obs::MetricsRegistry one, both;
  one.set("route.nets_routed", 10);
  both.merge_prefixed(one, "fig66.");
  one.set("route.nets_routed", 20);
  both.merge_prefixed(one, "fig67.");
  ASSERT_NE(both.find("fig66.route.nets_routed"), nullptr);
  ASSERT_NE(both.find("fig67.route.nets_routed"), nullptr);
  EXPECT_EQ(both.find("fig66.route.nets_routed")->i, 10);
  EXPECT_EQ(both.find("fig67.route.nets_routed")->i, 20);
}

// ----- span rollup -----------------------------------------------------------

/// A recorded event as trace_events() reports it; times in microseconds.
obs::TraceEventView view(const char* name, int tid, std::uint64_t start_us,
                         std::uint64_t dur_us, char ph = 'X') {
  return {name, start_us * 1000, dur_us * 1000, tid, 0, ph, {}};
}

TEST(SpanRollup, MatchesPerfbenchFixture) {
  // perfbench/run.py's self_check fixture: "p" holds "a" (which holds
  // "g"), "b" and "c"; "other" overlaps them on another thread.
  const std::vector<obs::TraceEventView> nested = {
      view("p", 1, 0, 100),     view("a", 1, 10, 20), view("other", 2, 10, 80),
      view("g", 1, 12, 3),      view("b", 1, 50, 10), view("c", 1, 95, 5),
      view("mark", 1, 60, 0, 'C')};
  const std::vector<obs::SpanStats> rollup = obs::span_rollup(nested);
  const std::vector<std::pair<std::string, double>> want_self = {
      {"a", 17}, {"b", 10}, {"c", 5}, {"g", 3}, {"other", 80}, {"p", 65}};
  ASSERT_EQ(rollup.size(), want_self.size());  // the counter is no span
  for (size_t i = 0; i < rollup.size(); ++i) {
    EXPECT_EQ(rollup[i].name, want_self[i].first);  // sorted by name
    EXPECT_EQ(rollup[i].count, 1);
    EXPECT_DOUBLE_EQ(rollup[i].self_ms, want_self[i].second / 1e3);
    EXPECT_DOUBLE_EQ(rollup[i].p50_ms, rollup[i].total_ms);
  }
  EXPECT_DOUBLE_EQ(obs::span_total_ms(rollup, "p"), 0.1);
  EXPECT_DOUBLE_EQ(obs::span_total_ms(rollup, "missing"), 0.0);

  // A child running past its parent's end only covers the parent's part.
  const std::vector<obs::TraceEventView> overrun = {view("p", 1, 0, 10),
                                                    view("c", 1, 8, 5)};
  const std::vector<obs::SpanStats> clipped = obs::span_rollup(overrun);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_DOUBLE_EQ(clipped[1].self_ms, 0.008);  // "p"
  EXPECT_DOUBLE_EQ(clipped[0].self_ms, 0.005);  // "c"

  // Nearest-rank percentiles over one name's durations [5, 1, 3].
  const std::vector<obs::TraceEventView> repeated = {
      view("x", 1, 0, 5), view("x", 1, 10, 1), view("x", 1, 20, 3)};
  const std::vector<obs::SpanStats> pct = obs::span_rollup(repeated);
  ASSERT_EQ(pct.size(), 1u);
  EXPECT_EQ(pct[0].count, 3);
  EXPECT_DOUBLE_EQ(pct[0].total_ms, 0.009);
  EXPECT_DOUBLE_EQ(pct[0].p50_ms, 0.003);
  EXPECT_DOUBLE_EQ(pct[0].p99_ms, 0.005);

  obs::MetricsRegistry reg;
  obs::absorb(reg, pct);
  ASSERT_NE(reg.find("span.x.count"), nullptr);
  EXPECT_EQ(reg.find("span.x.count")->i, 3);
  ASSERT_NE(reg.find("span.x.p99_ms"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find("span.x.p99_ms")->d, 0.005);
}

// ----- thread-pool scheduling counters --------------------------------------

TEST(PoolStats, CountsPeakQueued) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait_idle();
  EXPECT_GE(pool.stats().peak_queued, 1);
}

// ----- pipeline guards -------------------------------------------------------

RouterOptions life_router_options() {
  RouterOptions opt;
  opt.margin = 12;
  opt.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  return opt;
}

/// Tracing must be pure observation: a traced routing run yields the same
/// bytes (diagram and report) as an untraced one.
TEST(TraceGuard, TracedRunByteIdenticalToUntraced) {
  const Network net = gen::life_network();
  Diagram untraced(net);
  gen::life_hand_placement(untraced);
  obs::trace_disable();
  const RouteReport r0 = route_all(untraced, life_router_options());
  const std::string s0 = to_escher_diagram(untraced, "guard");

  Diagram traced(net);
  gen::life_hand_placement(traced);
  obs::trace_reset();
  obs::trace_enable();
  const RouteReport r1 = route_all(traced, life_router_options());
  obs::trace_disable();
  const std::string s1 = to_escher_diagram(traced, "guard");

  EXPECT_EQ(s0, s1);
  EXPECT_EQ(r0.nets_routed, r1.nets_routed);
  EXPECT_EQ(r0.nets_failed, r1.nets_failed);
  EXPECT_EQ(r0.connections_made, r1.connections_made);
  EXPECT_EQ(r0.connections_failed, r1.connections_failed);
  EXPECT_EQ(r0.retried_connections, r1.retried_connections);
  EXPECT_EQ(r0.total_expansions, r1.total_expansions);
  EXPECT_EQ(r0.failed_nets, r1.failed_nets);
  EXPECT_FALSE(obs::trace_events().empty());
  obs::trace_reset();
}

/// Acceptance: a traced automatic LIFE generation emits a Chrome trace
/// that parses and whose spans cover the six placement phases, routing,
/// and validation.
TEST(TraceGuard, TracedLifeRunCoversPipelinePhases) {
  const Network net = gen::life_network();
  Diagram dia(net);
  GeneratorOptions opt;  // the fig-6.7 automatic LIFE settings
  opt.placer.max_part_size = 3;
  opt.placer.max_box_size = 3;
  opt.placer.module_spacing = 1;
  opt.placer.partition_spacing = 2;
  opt.router.margin = 12;
  opt.router.order_criterion =
      static_cast<int>(NetOrderCriterion::LongestFirst);

  obs::trace_reset();
  obs::trace_enable();
  const GeneratorResult result = generate(dia, opt);
  const auto problems = validate_diagram(dia);
  obs::trace_disable();
  EXPECT_TRUE(problems.empty());
  EXPECT_GT(result.route.nets_routed, 0);

  const std::string json = obs::trace_to_json();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(json).parse());
  const Json* list = root.find("traceEvents");
  ASSERT_NE(list, nullptr);

  std::set<std::string> names;
  for (const Json& ev : list->array) {
    const Json* name = ev.find("name");
    ASSERT_NE(name, nullptr);
    names.insert(name->str);
    // Every event round-trips the Chrome schema basics.
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
  }
  // The six placement steps of the paper's PABLO...
  for (const char* phase :
       {"place.partition", "place.box_form", "place.module_place",
        "place.box_place", "place.partition_place", "place.terminal_place"}) {
    EXPECT_TRUE(names.count(phase)) << "missing span: " << phase;
  }
  // ...the routing pass with its per-net tasks, and validation.
  EXPECT_TRUE(names.count("place"));
  EXPECT_TRUE(names.count("route"));
  EXPECT_TRUE(names.count("route.pass1"));
  EXPECT_TRUE(names.count("route.net"));
  EXPECT_TRUE(names.count("validate.full"));
  obs::trace_reset();
}

}  // namespace
}  // namespace na
