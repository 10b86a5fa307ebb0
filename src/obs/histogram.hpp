// Log-linear latency histogram — the one quantile implementation the
// daemon, the benches and the tests share.
//
// Layout (HdrHistogram-style, fixed at compile time): values 0..15 get one
// bucket each, then every power-of-two range [2^m, 2^(m+1)) is split into
// 16 linear sub-buckets, up to 2^40 (a value recorded in microseconds can
// span a nanosecond blip to ~12 days).  Relative quantile error is bounded
// by the sub-bucket width: at most 1/16 ≈ 6.25% of the value.  Memory is a
// fixed ~4.6 KiB of counters per histogram — recordable forever at
// constant cost, which is what lets the daemon keep latency quantiles for
// every op without the unbounded sample vectors bench code used to sort.
//
// Concurrency: record() is wait-free — relaxed atomic adds on the bucket
// counters plus CAS loops for min/max — safe from any number of threads
// (pool workers, I/O loops) with no lock.  snapshot() reads the counters
// relaxedly: taken while recorders are quiescent it is exact; taken live
// it may miss in-flight records but never tears a bucket.  Emission goes
// through HistogramData, a plain copyable snapshot with deterministic
// byte-stable JSON/text rendering — equal data always renders equal bytes.
//
// Unit convention: the serve/pool latency histograms record MICROSECONDS
// (record_ms converts); quantiles render as milliseconds in text output
// and raw recorded units in JSON buckets.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace na::obs {

class JsonWriter;

/// Plain snapshot of a Histogram: copyable, mergeable, renderable.  The
/// MetricsRegistry stores these (never the live atomics).
struct HistogramData {
  long long count = 0;
  long long sum = 0;  ///< sum of recorded values (saturating in practice)
  long long min = 0;  ///< exact smallest recorded value; 0 when empty
  long long max = 0;  ///< exact largest recorded value; 0 when empty
  /// Non-empty buckets only, ascending by index: {bucket index, count}.
  std::vector<std::pair<int, long long>> buckets;

  /// Adds `other`'s population to this one (min/max/sum/count/buckets).
  void merge(const HistogramData& other);

  /// Value at quantile q in [0, 1], nearest-rank over the bucket counts.
  /// Returns the highest value the rank's bucket can hold (exact in the
  /// linear region, within 1/16 above), clamped to the recorded max; the
  /// empty histogram returns 0.
  long long quantile(double q) const;

  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }

  /// {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..,
  ///  "buckets":[[lower,count],...]} — values in recorded units.
  void append_json(JsonWriter& w) const;
};

/// The live recordable histogram.  Fixed bucket layout, atomic counters.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  ///< 16 per octave
  static constexpr int kMaxPow = 40;  ///< covers values < 2^40
  static constexpr int kBucketCount =
      kSubBuckets + (kMaxPow - kSubBucketBits) * kSubBuckets;

  /// Bucket holding `v` (negatives clamp to 0, overlarge values to the
  /// top bucket).
  static int bucket_index(long long v);
  /// Smallest value of bucket `index`.
  static long long bucket_lower(int index);
  /// One past the largest value of bucket `index` (== lower of index+1).
  static long long bucket_upper(int index);

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one value.  Wait-free, thread-safe.
  void record(long long v);
  /// Records a duration measured in milliseconds as microseconds.
  void record_ms(double ms);

  long long count() const { return count_.load(std::memory_order_relaxed); }

  /// Copies the current population out (see the liveness caveat above).
  HistogramData snapshot() const;

  /// Zeroes every counter.  Only safe while no recorder is active.
  void reset();

 private:
  /// Values clamp to [0, 2^40); anything above the sentinel can never be
  /// recorded, so min_ == sentinel means "no record yet".
  static constexpr long long kMinSentinel = 1LL << 62;

  std::atomic<long long> counts_[kBucketCount] = {};
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
  std::atomic<long long> min_{kMinSentinel};
  std::atomic<long long> max_{0};
};

}  // namespace na::obs
