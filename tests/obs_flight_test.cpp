// Tests of the telemetry additions: the log-linear obs::Histogram (bucket
// geometry, quantile error bound, merge, concurrent recording), the
// flight-recorder ring in the trace layer (wrap-around retention, memory
// held at the cap, byte-stable dumps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace na {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ----- histogram bucket geometry ---------------------------------------------

TEST(Histogram, LinearRegionIsExact) {
  // Values 0..15 get one bucket each: index == value, width 1.
  for (long long v = 0; v < 16; ++v) {
    const int b = obs::Histogram::bucket_index(v);
    EXPECT_EQ(b, static_cast<int>(v));
    EXPECT_EQ(obs::Histogram::bucket_lower(b), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(b), v + 1);
  }
}

TEST(Histogram, BucketsTileTheRange) {
  // upper(i) == lower(i+1): no gaps, no overlaps, monotonic lowers.
  for (int i = 0; i + 1 < obs::Histogram::kBucketCount; ++i) {
    EXPECT_EQ(obs::Histogram::bucket_upper(i),
              obs::Histogram::bucket_lower(i + 1))
        << "bucket " << i;
    EXPECT_LT(obs::Histogram::bucket_lower(i),
              obs::Histogram::bucket_lower(i + 1));
  }
}

TEST(Histogram, EveryValueLandsInItsBucket) {
  // Probe around every power of two: v must satisfy lower <= v < upper.
  std::vector<long long> probes = {0, 1, 15, 16, 17};
  for (int p = 5; p <= 40; ++p) {
    const long long v = 1LL << p;
    probes.push_back(v - 1);
    probes.push_back(v);
    probes.push_back(v + v / 16);  // one sub-bucket in
  }
  for (const long long v : probes) {
    const int b = obs::Histogram::bucket_index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, obs::Histogram::kBucketCount);
    if (v < (1LL << 40)) {
      EXPECT_LE(obs::Histogram::bucket_lower(b), v) << "value " << v;
      EXPECT_GT(obs::Histogram::bucket_upper(b), v) << "value " << v;
    }
  }
  // Out-of-range values clamp instead of indexing out of bounds.
  EXPECT_EQ(obs::Histogram::bucket_index(-5), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1LL << 50),
            obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, RelativeErrorBounded) {
  // The sub-bucket width bounds the quantile error: for any recorded
  // value v, the bucket's reported upper-1 is within v/16 of v.
  for (long long v = 1; v < (1LL << 30); v = v * 3 + 7) {
    const int b = obs::Histogram::bucket_index(v);
    const long long reported = obs::Histogram::bucket_upper(b) - 1;
    EXPECT_GE(reported, v);
    EXPECT_LE(reported - v, v / 16 + 1) << "value " << v;
  }
}

// ----- recording and quantiles -----------------------------------------------

TEST(Histogram, CountSumMinMaxExact) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  h.record(7);
  h.record(130);
  h.record(42);
  const obs::HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 3);
  EXPECT_EQ(d.sum, 179);
  EXPECT_EQ(d.min, 7);   // min/max are exact even though buckets quantise
  EXPECT_EQ(d.max, 130);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const obs::HistogramData d = obs::Histogram().snapshot();
  EXPECT_EQ(d.count, 0);
  EXPECT_EQ(d.min, 0);
  EXPECT_EQ(d.max, 0);
  EXPECT_TRUE(d.buckets.empty());
  EXPECT_EQ(d.quantile(0.5), 0);
  EXPECT_EQ(d.mean(), 0.0);
}

TEST(Histogram, QuantilesWithinErrorBound) {
  // Uniform 1..10000: p50 ~ 5000, p99 ~ 9900, p0 = min, p100 = max.
  obs::Histogram h;
  for (long long v = 1; v <= 10000; ++v) h.record(v);
  const obs::HistogramData d = h.snapshot();
  const auto near = [](long long got, long long want) {
    const long long slack = want / 16 + 1;
    return got >= want - slack && got <= want + slack;
  };
  EXPECT_TRUE(near(d.quantile(0.50), 5000)) << d.quantile(0.50);
  EXPECT_TRUE(near(d.quantile(0.99), 9900)) << d.quantile(0.99);
  EXPECT_EQ(d.quantile(0.0), 1);
  EXPECT_EQ(d.quantile(1.0), 10000);  // clamped to the exact max
  EXPECT_LE(d.quantile(0.50), d.quantile(0.90));
  EXPECT_LE(d.quantile(0.90), d.quantile(0.99));
}

TEST(Histogram, RecordMsConvertsToMicroseconds) {
  obs::Histogram h;
  h.record_ms(1.5);
  const obs::HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 1);
  EXPECT_EQ(d.min, 1500);
  EXPECT_EQ(d.max, 1500);
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  // Recording a population split across two histograms and merging the
  // snapshots must equal recording everything into one.
  obs::Histogram a, b, both;
  for (long long v = 1; v <= 500; ++v) {
    (v % 2 == 0 ? a : b).record(v * 13);
    both.record(v * 13);
  }
  obs::HistogramData merged = a.snapshot();
  merged.merge(b.snapshot());
  const obs::HistogramData ref = both.snapshot();
  EXPECT_EQ(merged.count, ref.count);
  EXPECT_EQ(merged.sum, ref.sum);
  EXPECT_EQ(merged.min, ref.min);
  EXPECT_EQ(merged.max, ref.max);
  EXPECT_EQ(merged.buckets, ref.buckets);
  EXPECT_EQ(merged.quantile(0.5), ref.quantile(0.5));
  EXPECT_EQ(merged.quantile(0.99), ref.quantile(0.99));
}

TEST(Histogram, MergeIntoEmptyAndWithEmpty) {
  obs::Histogram h;
  h.record(9);
  h.record(4000);
  const obs::HistogramData src = h.snapshot();
  obs::HistogramData onto_empty;  // empty.merge(x) == x
  onto_empty.merge(src);
  EXPECT_EQ(onto_empty.buckets, src.buckets);
  EXPECT_EQ(onto_empty.min, src.min);
  EXPECT_EQ(onto_empty.max, src.max);
  obs::HistogramData with_empty = src;  // x.merge(empty) == x
  with_empty.merge(obs::HistogramData{});
  EXPECT_EQ(with_empty.buckets, src.buckets);
  EXPECT_EQ(with_empty.min, src.min);
  EXPECT_EQ(with_empty.count, src.count);
}

TEST(Histogram, RegistryEmissionIsByteStable) {
  // Two emissions of the same registry state render identical bytes, and
  // a registry without histograms keeps the pre-histogram JSON shape.
  obs::MetricsRegistry scalars;
  scalars.set("serve.requests", 3);
  EXPECT_EQ(scalars.to_json().find("\"histograms\""), std::string::npos);

  obs::Histogram h;
  for (long long v = 1; v <= 100; ++v) h.record(v * 7);
  obs::MetricsRegistry reg;
  reg.set("serve.requests", 3);
  reg.set_histogram("serve.lat.edit", h.snapshot());
  const std::string a = reg.to_json();
  const std::string b = reg.to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  EXPECT_NE(a.find("\"serve.lat.edit\""), std::string::npos);
  EXPECT_EQ(reg.to_text(), reg.to_text());
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  // The wait-free contract: N threads hammering one histogram, every
  // record lands.  The obs_flight_tsan ctest entry runs this strictly.
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kEach = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kEach; ++i) h.record(t * kEach + i);
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, static_cast<long long>(kThreads) * kEach);
  EXPECT_EQ(d.min, 0);
  EXPECT_EQ(d.max, kThreads * kEach - 1);
  long long bucket_total = 0;
  for (const auto& [index, count] : d.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, d.count);
}

// ----- flight recorder -------------------------------------------------------

/// Fresh recorder state: events dropped, flight mode off, epoch re-armed.
void fresh_trace(size_t flight_capacity = 0) {
  obs::trace_disable();
  obs::trace_flight_enable(0);
  obs::trace_reset();
  if (flight_capacity > 0) obs::trace_flight_enable(flight_capacity);
  obs::trace_enable();
}

TEST(Flight, RingRetainsExactlyTheLastN) {
  constexpr size_t kCap = 32;
  constexpr int kTotal = 100;
  fresh_trace(kCap);
  EXPECT_TRUE(obs::trace_flight_enabled());
  EXPECT_EQ(obs::trace_flight_capacity(), kCap);
  for (int i = 0; i < kTotal; ++i) {
    NA_TRACE_COUNTER("tick", "i", i);
  }
  obs::trace_disable();

  // Exactly the last kCap events survive, in recording order, and the
  // per-thread sequence numbers stay monotonic across the wrap.
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), kCap);
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].args.size(), 1u);
    EXPECT_EQ(events[i].args[0].value,
              static_cast<long long>(kTotal - kCap + i));
    if (i > 0) {
      EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
      EXPECT_GE(events[i].ts, events[i - 1].ts);
    }
  }
  EXPECT_EQ(obs::trace_flight_dropped(), kTotal - kCap);
  fresh_trace();
}

TEST(Flight, MemoryHeldAtCapUnderSustainedLoad) {
  // The acceptance bar: a busy recorder with the ring bound never grows
  // trace memory past capacity, no matter how long it runs.
  constexpr size_t kCap = 64;
  fresh_trace(kCap);
  for (int i = 0; i < 20000; ++i) {
    NA_TRACE_SCOPE("op");
  }
  obs::trace_disable();
  EXPECT_EQ(obs::trace_buffered_events(), kCap);  // only this thread recorded
  EXPECT_EQ(obs::trace_flight_dropped(), 20000u - kCap);
  fresh_trace();
}

TEST(Flight, CapacityShrinkShedsOldestOnNextRecord) {
  // Enabling a smaller ring over a fatter buffer sheds down to the new
  // cap on the owning thread's next record — oldest events go first.
  fresh_trace();
  for (int i = 0; i < 100; ++i) {
    NA_TRACE_COUNTER("grow", "i", i);
  }
  obs::trace_flight_enable(16);
  NA_TRACE_COUNTER("after", "i", 100);
  obs::trace_disable();
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_STREQ(events.back().name, "after");
  EXPECT_STREQ(events.front().name, "grow");
  EXPECT_EQ(events.front().args[0].value, 85);  // 85..99 + "after" retained
  fresh_trace();
}

TEST(Flight, DumpIsByteStableAndRequiresFlightMode) {
  fresh_trace(32);
  for (int i = 0; i < 50; ++i) {
    NA_TRACE_SCOPE("dump.work");
  }
  obs::trace_disable();
  const std::string p1 = temp_path("flight_dump_1.json");
  const std::string p2 = temp_path("flight_dump_2.json");
  ASSERT_TRUE(obs::trace_flight_dump(p1));
  ASSERT_TRUE(obs::trace_flight_dump(p2));
  const std::string d1 = slurp(p1);
  EXPECT_EQ(d1, slurp(p2));  // same rings, same bytes
  EXPECT_NE(d1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(d1.find("dump.work"), std::string::npos);

  // Dumping without flight mode is refused (use trace_write for that).
  obs::trace_flight_enable(0);
  EXPECT_FALSE(obs::trace_flight_dump(p1));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  fresh_trace();
}

}  // namespace
}  // namespace na
